package exec

import (
	"errors"
	"fmt"

	"repro/internal/coro"
	"repro/internal/cpu"
)

// Source is where an engine takes its work from: a ring of Len
// entities, each backed by one task, some of which may have nothing to
// run. The symmetric engine (Ticker) and the SMT stall-switch engine
// (internal/smt) are written once against it. A fixed task set
// (TaskSet) is the source experiments and the many-core kernel use;
// the open-loop service harness supplies its serving cell, whose
// worker slots are re-armed with request after request.
type Source interface {
	// Len is the ring size; entities are indexed 0..Len()-1.
	Len() int
	// TaskAt returns entity i's task.
	TaskAt(i int) *Task
	// RunnableAt reports whether entity i has work to run.
	RunnableAt(i int) bool
	// HaltAt retires entity i after its context halted.
	HaltAt(i int) error
	// Poll admits work that has arrived by the current cycle and
	// returns the cycle the next piece arrives at, strictly in the
	// future; ok is false when none will arrive on its own. Engines
	// call it before every scheduling decision, and use next to clip
	// busy budgets and to bound idling.
	Poll() (next uint64, ok bool)
	// Pending reports whether the run has more to do.
	Pending() bool
}

// taskSet is the fixed task set: every task is runnable until it
// halts, and the run is over once all have.
type taskSet struct {
	tasks   []*Task
	running int
}

// TaskSet returns the fixed task set over tasks.
func TaskSet(tasks []*Task) Source {
	s := &taskSet{tasks: tasks}
	for _, t := range tasks {
		if !t.Ctx.Halted {
			s.running++
		}
	}
	return s
}

func (s *taskSet) Len() int              { return len(s.tasks) }
func (s *taskSet) TaskAt(i int) *Task    { return s.tasks[i] }
func (s *taskSet) RunnableAt(i int) bool { return !s.tasks[i].Ctx.Halted }
func (s *taskSet) HaltAt(int) error      { s.running--; return nil }
func (s *taskSet) Poll() (uint64, bool)  { return 0, false }
func (s *taskSet) Pending() bool         { return s.running > 0 }

// errStalled reports a source that has work pending but nothing
// runnable and nothing arriving.
var errStalled = errors.New("exec: stalled with nothing runnable and nothing arriving")

// Budget returns the busy-cycle budget that hands control back to the
// scheduling loop at the nearer of deadline and the next arrival (when
// ok), as seen at cycle now; 0 means unbounded. A deadline of
// ^uint64(0) means none. A budget stop is exactly a fuel split, so
// clipping changes no architectural state, only where the loop gets to
// look at the clock.
func Budget(now, deadline, next uint64, ok bool) uint64 {
	var b uint64
	if deadline != ^uint64(0) {
		b = deadline - now
	}
	if ok && (b == 0 || next-now < b) {
		b = next - now
	}
	return b
}

// Idle advances the clock, with nothing runnable, to the next arrival
// (when ok) or to deadline, whichever comes first.
func (e *Executor) Idle(deadline, next uint64, ok bool) error {
	if !ok || next > deadline {
		if deadline == ^uint64(0) {
			return errStalled
		}
		next = deadline
	}
	e.Core.AdvanceIdle(next - e.Core.Now)
	return nil
}

// Ticker is the solo and symmetric engine, resumable at cycle
// deadlines: Run(deadline) advances until the core clock reaches the
// deadline, and a later call picks up exactly where it stopped.
// RunSolo and RunSymmetric are Run(^uint64(0)); the cycle-quantum
// kernel (internal/machine) and the open-loop service harness call Run
// once per quantum. Splitting a fixed task set at arbitrary deadlines
// is byte-identical to running it unsplit: RunBlock's busy-budget stop
// is exactly a fuel split, which the block-engine differential tests
// pin as equivalence-preserving.
type Ticker struct {
	e         *Executor
	src       Source
	n         int   // src.Len()
	cur       int   // entity holding the CPU; -1 = none
	task      *Task // its task
	steps     uint64
	start     uint64
	latencies []uint64
	done      bool
	r         cpu.BlockResult
}

// NewTicker prepares a resumable run over a fixed task set. solo
// mirrors RunSolo (exactly one task, no mode forcing, no resume
// events); otherwise all tasks enter primary mode and the first Run
// resumes the first runnable one.
func (e *Executor) NewTicker(tasks []*Task, solo bool) (*Ticker, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("exec: no tasks")
	}
	if solo && len(tasks) != 1 {
		return nil, fmt.Errorf("exec: solo ticker takes exactly one task, got %d", len(tasks))
	}
	t := e.NewSourceTicker(TaskSet(tasks))
	if solo {
		t.cur, t.task = 0, tasks[0]
		return t, nil
	}
	for _, tk := range tasks {
		tk.Mode = coro.Primary
		tk.Ctx.Mode = coro.Primary
	}
	t.latencies = make([]uint64, len(tasks))
	return t, nil
}

// NewSourceTicker prepares a symmetric run over src. Nothing holds the
// CPU until the first Run picks a runnable entity; task modes are the
// source's business.
func (e *Executor) NewSourceTicker(src Source) *Ticker {
	return &Ticker{e: e, src: src, n: src.Len(), cur: -1, start: e.Core.Now}
}

// Steps returns the instructions retired so far.
func (t *Ticker) Steps() uint64 { return t.steps }

// Run advances the source until the core clock reaches deadline or the
// source has nothing pending, whichever comes first. It returns
// done=true when the run is complete; done=false means the deadline
// passed and Run should be called again with a later one. Every
// primary-phase yield rotates to the next runnable entity
// (conditional yields stay dormant, and a budget stop just re-enters
// the loop on the same task); with nothing runnable the clock idles to
// the next arrival.
//
//shsim:cycle-entry
//shsim:noalloc
func (t *Ticker) Run(deadline uint64) (bool, error) {
	if t.done {
		return true, nil
	}
	e, src := t.e, t.src
	for src.Pending() {
		if e.Core.Now >= deadline {
			return false, nil
		}
		if t.steps >= e.Cfg.MaxSteps {
			return false, ErrFuelExhausted
		}
		next, ok := src.Poll()
		// An entity stays runnable until it halts, and a halt moves the
		// CPU on, so only an empty CPU needs a pick.
		if t.cur < 0 {
			nxt := t.next()
			if nxt < 0 {
				if err := e.Idle(deadline, next, ok); err != nil {
					return false, err
				}
				continue
			}
			t.switchTo(nxt)
		}
		budget := Budget(e.Core.Now, deadline, next, ok)
		if err := e.Core.RunBlock(t.task.Ctx, false, e.Cfg.MaxSteps-t.steps, budget, &t.r); err != nil {
			return false, err
		}
		t.steps += t.r.Steps
		switch {
		case t.r.Halted:
			if t.latencies != nil {
				t.latencies[t.cur] = e.Core.Now - t.start
			}
			if err := src.HaltAt(t.cur); err != nil {
				return false, err
			}
			if t.cur = t.next(); t.cur >= 0 {
				t.switchTo(t.cur)
			}
		case t.r.Yield:
			if nxt := t.next(); nxt >= 0 && nxt != t.cur {
				e.switchFrom(t.task, t.r.LiveMask)
				t.switchTo(nxt)
			}
		}
	}
	t.done = true
	return true, nil
}

// next scans the ring from cur+1, wrapping through cur itself; -1
// means nothing is runnable.
func (t *Ticker) next() int {
	for off := 1; off <= t.n; off++ {
		if i := (t.cur + off + t.n) % t.n; t.src.RunnableAt(i) {
			return i
		}
	}
	return -1
}

// switchTo hands the CPU to entity i.
func (t *Ticker) switchTo(i int) {
	t.cur = i
	t.task = t.src.TaskAt(i)
	t.e.resume(t.task)
}

// Stats assembles the run statistics. Valid once Run reports done; the
// fields match what RunSolo/RunSymmetric return for the same task set.
func (t *Ticker) Stats() Stats {
	st := Stats{Cycles: t.e.Core.Now - t.start, Latencies: t.latencies}
	for i := 0; i < t.src.Len(); i++ {
		collect(&st, t.src.TaskAt(i))
	}
	return st
}
