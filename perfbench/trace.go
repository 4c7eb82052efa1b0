package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index into tracer.spans; -1 for a root
	run        int           // spans of one probe share a run id
}

// tracer keeps spans in memory; they are written once, at exit. The
// zero value is off: begin and end do nothing and end reports 0.
type tracer struct {
	on    bool
	epoch time.Time
	run   int
	spans []span
	open  []int // stack of spans begun and not yet ended
	// cost is the host time spent inside the tracer's own methods: the
	// tracing overhead.
	cost time.Duration
}

func newTracer() *tracer { return &tracer{on: true, epoch: time.Now(), run: 1} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	enter := time.Now()
	defer func() { t.cost += time.Since(enter) }()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, run: t.run})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and
// returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if !t.on {
		return 0
	}
	enter := time.Now()
	defer func() { t.cost += time.Since(enter) }()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d ended out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	return (s.end - s.start).Seconds()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, f func()) float64 {
	id := t.begin(name)
	f()
	return t.end(id)
}

// memStats reads the runtime's heap statistics into ms, counting the
// read as tracing overhead; off, it leaves ms untouched.
func (t *tracer) memStats(ms *runtime.MemStats) {
	if !t.on {
		return
	}
	enter := time.Now()
	runtime.ReadMemStats(ms)
	t.cost += time.Since(enter)
}

// nextRun starts a new run id for the spans that follow.
func (t *tracer) nextRun() { t.run++ }

// selfTimes returns each span's duration minus the time its children
// cover. Children of one span never overlap: the probes are sequential.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// printSelfTimes lists the spans by self time, largest first.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	idx := make([]int, len(t.spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return self[idx[a]] > self[idx[b]] })
	fmt.Fprintln(w, "trace: self time by span (run, name, self s, total s)")
	for _, i := range idx {
		s := t.spans[i]
		fmt.Fprintf(w, "trace:   %d %-32s %.6f %.6f\n", s.run, s.name, self[i].Seconds(), (s.end - s.start).Seconds())
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON, one process
// lane per run id.
func (t *tracer) writeChrome(path string) error {
	self := t.selfTimes()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		events[i] = chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: s.run, Tid: 1,
			Args: map[string]any{"parent": parent, "run": s.run, "self_us": float64(self[i]) / float64(time.Microsecond)},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
