// Command perfbench is the repository benchmark: it runs one workload
// through the public repro Session API for a fixed host-time budget,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics of a traced run) as one JSON object on
// the last line of standard output. See README.md for the workloads,
// the metric definitions and how to run it.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/experiments"
)

// defaultSeed is the reference machine seed; the golden tables were
// rendered at it.
const defaultSeed = 20230626

// minIterations is the least number of set-up + measured-call iterations
// one untraced run makes, so every reported value is a median.
const minIterations = 3

// workload is one benchmark input: a set-up plus measured call repeated
// for the run's budget, and a traced probe that times each layer.
type workload struct {
	name string
	// iterate sets up, makes the measured call and checks its outputs.
	iterate func(seed int64, chk *tally) (iteration, error)
	// probe calls into each layer one at a time under tr, checking
	// outputs, and returns the per-layer metrics (nil when tr is off).
	probe func(seed int64, tr *tracer, chk *tally) (map[string]float64, error)
}

// iteration is one set-up plus measured call.
type iteration struct {
	setupS, wallS float64
	// metrics holds the workload's own end-to-end values beyond the
	// set-up and wall times.
	metrics map[string]float64
}

var workloads = []workload{
	{"suite", suiteIterate, suiteProbe},
	{"membound", memboundIterate, memboundProbe},
	{"serve", serveIterate, serveProbe},
}

// metricDef names one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run reports. A
// workload that does not exercise a metric reports notExercised for it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"serve_req_per_s", "1/s"},
	{"sim_cycles", "cycles"},
	{"sim_p99_us.1c", "sim_us"},
	{"sim_p99_us.2c", "sim_us"},
	{"sim_refused_frac", "fraction"},
}

// perLayer lists the per-layer metrics every traced run reports, by
// layer: they come from the suite, membound and serve probes in turn.
func perLayer() []metricDef {
	var defs []metricDef
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"}, metricDef{"experiments." + id + "_alloc_mib", "MiB"})
	}
	defs = append(defs,
		metricDef{"workloads.compose_s", "s"},
		metricDef{"pebs.profile_s", "s"},
		metricDef{"pebs.host_ns_per_instr", "ns"},
		metricDef{"pebs.drop_frac", "fraction"},
		metricDef{"instrument.rewrite_s", "s"},
		metricDef{"instrument.yields", "count"},
		metricDef{"check.verify_s", "s"},
		metricDef{"exec.run_s", "s"},
		metricDef{"exec.host_ns_per_instr", "ns"},
		metricDef{"exec.switches", "count"},
		metricDef{"exec.busy_frac", "fraction"},
		metricDef{"exec.stall_frac", "fraction"},
		metricDef{"exec.switch_frac", "fraction"},
		metricDef{"mem.host_ns_per_access", "ns"},
		metricDef{"mem.accesses", "count"},
		metricDef{"mem.l1_hit_frac", "fraction"},
		metricDef{"mem.dram_frac", "fraction"},
		metricDef{"mem.writebacks", "count"},
		metricDef{"mem.mshr_peak", "count"},
		metricDef{"mem.prefetch_hidden_frac", "fraction"},
		metricDef{"workloads.compose_s.serve", "s"},
	)
	for _, c := range serveCells {
		defs = append(defs, metricDef{"service.cell_s." + c.name, "s"}, metricDef{"service.host_us_per_req." + c.name, "us"})
	}
	for _, c := range serveCells {
		if c.cores > 1 {
			defs = append(defs, metricDef{"service.host_ns_per_quantum." + c.name, "ns"})
		}
	}
	return append(defs,
		metricDef{"service.switches", "count"},
		metricDef{"service.episodes", "count"},
		metricDef{"service.chains", "count"},
		metricDef{"trace.overhead_s", "s"},
	)
}

// notExercised is the value of an end-to-end metric on a workload that
// does not exercise it: a fixed, non-zero placeholder that never moves.
const notExercised = 1.0

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: suite, membound or serve")
	seed := flag.Int64("seed", defaultSeed, "workload seed (the machine seed of every session)")
	seconds := flag.Int("seconds", 10, "host seconds one untraced run measures for")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the measured loop")
	traceOut := flag.String("trace-out", "", "file the traced run writes its Chrome trace-event JSON to")
	flag.Parse()

	w, ok := lookup(*name)
	switch {
	case !ok:
		return usage("unknown -workload %q", *name)
	case *seconds < 1:
		return usage("-seconds must be positive")
	case *traced != 0 && *traced != 1:
		return usage("-trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	fmt.Printf("context: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		w.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	var chk tally
	var metrics map[string]float64
	var err error
	if *traced == 1 {
		metrics, err = tracedRun(w, *seed, *traceOut, &chk)
	} else {
		metrics, err = measuredRun(w, *seed, time.Duration(*seconds)*time.Second, &chk)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer()
	}
	line, err := resultJSON(chk, defs, metrics)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Printf("checks: %d attempted, %d failed (failed_frac %g)\n", chk.attempted, chk.failed, chk.frac())
	fmt.Println(line)
	if chk.failed > 0 {
		return 1
	}
	return 0
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	flag.Usage()
	return 2
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// One set-up measurement times setupBatches batches of batchSessions
// session constructions each. One construction takes well under a
// microsecond, a few ticks of the host clock, so each batch is timed as
// a whole. The fastest batch is the measurement: what the host adds at
// this scale — a garbage collection, a page fault, a cold cache after
// the previous iteration — only ever adds time, and in the 2-CPU
// container it moved the median batch by a factor of three between
// iterations of one run.
const (
	setupBatches  = 33
	batchSessions = 64
)

// newSessionTimed builds sessions with opts and returns the last one
// with the seconds one construction takes in the fastest batch.
func newSessionTimed(opts ...repro.Option) (*repro.Session, float64, error) {
	var s *repro.Session
	fastest := math.Inf(1)
	for b := 0; b < setupBatches; b++ {
		start := time.Now()
		for i := 0; i < batchSessions; i++ {
			var err error
			if s, err = repro.NewSession(opts...); err != nil {
				return nil, 0, err
			}
		}
		fastest = min(fastest, time.Since(start).Seconds()/batchSessions)
	}
	return s, fastest, nil
}

// measuredRun repeats the workload's iteration until the budget would be
// exceeded (and at least minIterations times) and reports the median of
// every end-to-end metric. The peak RSS is read after the first
// iteration: it is the peak of a process that has run the workload
// once, as a user's does. Later iterations, which only re-run it to time
// it, would add the heap fragmentation that repeating leaves behind.
func measuredRun(w workload, seed int64, budget time.Duration, chk *tally) (map[string]float64, error) {
	start := time.Now()
	samples := map[string][]float64{}
	var iterS []float64
	var rss float64
	for len(iterS) < minIterations || time.Since(start)+time.Duration(median(iterS)*float64(time.Second)) <= budget {
		runtime.GC() // set-up never pays for the last iteration's garbage
		t0 := time.Now()
		it, err := w.iterate(seed, chk)
		if err != nil {
			return nil, err
		}
		iterS = append(iterS, time.Since(t0).Seconds())
		samples["setup_s"] = append(samples["setup_s"], it.setupS)
		samples["wall_s"] = append(samples["wall_s"], it.wallS)
		for k, v := range it.metrics {
			samples[k] = append(samples[k], v)
		}
		fmt.Printf("iteration %d: setup %.4gs, measured call %.4gs\n", len(iterS), it.setupS, it.wallS)
		if len(iterS) == 1 {
			rss = peakRSSMiB()
		}
	}
	out := map[string]float64{}
	for _, m := range endToEnd {
		out[m.name] = notExercised
		if vs, ok := samples[m.name]; ok {
			out[m.name] = median(vs)
		}
	}
	out["peak_rss_mib"] = rss
	return out, nil
}

// tracedRun runs every workload's probe traced, the named workload's
// first, so every per-layer metric is reported whichever is named. The
// tracing overhead is the time the tracer itself spends: its clock
// reads, span bookkeeping and heap statistics.
func tracedRun(w workload, seed int64, traceOut string, chk *tally) (map[string]float64, error) {
	tr := newTracer()
	out := map[string]float64{}
	order := []workload{w}
	for _, o := range workloads {
		if o.name != w.name {
			order = append(order, o)
		}
	}
	for _, o := range order {
		runtime.GC()
		root := tr.begin(o.name)
		m, err := o.probe(seed, tr, chk)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = v
		}
		tr.nextRun()
	}
	out["trace.overhead_s"] = tr.cost.Seconds()
	fmt.Printf("trace: %d spans, tracer overhead %.6fs\n", len(tr.spans), tr.cost.Seconds())
	tr.printSelfTimes(os.Stdout)
	if traceOut != "" {
		if err := tr.writeChrome(traceOut); err != nil {
			return nil, err
		}
		fmt.Printf("trace: wrote %d spans to %s\n", len(tr.spans), traceOut)
	}
	return out, nil
}

// tally counts output checks.
type tally struct{ attempted, failed int }

// check records one output check; a non-nil err is a failed check.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// resultJSON renders the final line: every metric of defs, in order,
// with every digit it was measured with.
func resultJSON(chk tally, defs []metricDef, metrics map[string]float64) (string, error) {
	parts := make([]string, 0, len(defs))
	for _, m := range defs {
		v, ok := metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		parts = append(parts, fmt.Sprintf("%q: {\"value\": %s, \"unit\": %q}",
			m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit))
	}
	return fmt.Sprintf(`{"correct": %t, "attempted": %d, "failed": %d, "metrics": {%s}}`,
		chk.failed == 0, max(chk.attempted, 1), chk.failed, strings.Join(parts, ", ")), nil
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel reads the host CPU model for the context line.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
