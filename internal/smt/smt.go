// Package smt models simultaneous multithreading as a baseline: K hardware
// contexts multiplex one core, switching on memory stalls with zero
// software overhead.
//
// This captures both limitations the paper attributes to SMT (§1): the
// degree of concurrency is capped at the hardware context count (2–8 on
// real cores), and the hardware has no notion of application priority — a
// latency-sensitive thread is multiplexed like any other, so its latency
// inflates with the number of co-runners.
package smt

import (
	"errors"
	"fmt"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
)

// Config tunes the SMT model.
type Config struct {
	// Contexts is the number of hardware threads (2-8 on real parts).
	Contexts int
	// Quantum is the fine-grained multiplexing grain in cycles: the model
	// rotates runnable contexts every Quantum busy cycles, approximating
	// per-cycle issue-slot sharing. This is what makes SMT inflate the
	// latency of a thread sharing the core with compute-bound peers —
	// the hardware cannot prioritize.
	Quantum uint64
	// MaxSteps bounds total retired instructions (runaway guard).
	MaxSteps uint64
}

// DefaultConfig models 2-way SMT (Intel Hyper-Threading) with a fine
// multiplexing grain.
func DefaultConfig() Config {
	return Config{Contexts: 2, Quantum: 4, MaxSteps: 200_000_000}
}

// Stats summarizes an SMT run.
type Stats struct {
	// Cycles is the wall-clock duration.
	Cycles uint64
	// Busy is the sum of busy cycles across hardware contexts.
	Busy uint64
	// Idle counts cycles during which every context was blocked on
	// memory — the stalls SMT failed to hide.
	Idle uint64
	// Retired counts instructions retired by all contexts.
	Retired uint64
	// Latencies[i] is the wall time from run start to context i's halt.
	Latencies []uint64
}

// Efficiency returns busy cycles as a fraction of wall cycles.
func (s Stats) Efficiency() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Cycles)
}

// Run multiplexes the contexts on the core until all halt. Software
// yields (YIELD/CYIELD) retire as no-ops: SMT is hardware-only and cannot
// see them. len(ctxs) must not exceed cfg.Contexts.
//
//shsim:cycle-entry
func Run(core *cpu.Core, cfg Config, ctxs []*coro.Context) (Stats, error) {
	r, err := NewRunner(core, cfg, ctxs)
	if err != nil {
		return Stats{}, err
	}
	if _, err := r.Run(^uint64(0)); err != nil {
		return Stats{}, err
	}
	return r.Stats(), nil
}

// Runner is the stall-switch engine, resumable at cycle deadlines:
// Run(deadline) multiplexes the source's entities until the core clock
// reaches the deadline, and a later call picks up exactly where the
// previous one stopped. Run(^uint64(0)) is the classic
// run-to-completion discipline — the free Run function is that
// wrapper over a fixed set of contexts; the many-core kernel and the
// open-loop service harness call it once per quantum.
type Runner struct {
	core *cpu.Core
	cfg  Config
	src  exec.Source

	latencies    []uint64
	blockedUntil []uint64
	idle         uint64
	cur          int
	steps        uint64
	sliceUsed    uint64
	start        uint64
	done         bool
	r            cpu.BlockResult
}

// Errors that end a run.
var (
	errMaxSteps = errors.New("smt: MaxSteps exceeded")
	errDeadlock = errors.New("smt: deadlock — nothing runnable and nothing blocked")
)

// NewRunner validates the configuration and prepares a resumable run
// over a fixed set of contexts.
func NewRunner(core *cpu.Core, cfg Config, ctxs []*coro.Context) (*Runner, error) {
	tasks := make([]*exec.Task, len(ctxs))
	for i, c := range ctxs {
		tasks[i] = &exec.Task{Ctx: c, Mode: c.Mode}
	}
	return NewSourceRunner(core, cfg, exec.TaskSet(tasks))
}

// NewSourceRunner validates the configuration and prepares a resumable
// run over src, one hardware context per entity.
func NewSourceRunner(core *cpu.Core, cfg Config, src exec.Source) (*Runner, error) {
	n := src.Len()
	if cfg.Contexts <= 0 {
		return nil, fmt.Errorf("smt: context count must be positive")
	}
	if n == 0 {
		return nil, fmt.Errorf("smt: no contexts")
	}
	if n > cfg.Contexts {
		return nil, fmt.Errorf("smt: %d software threads exceed %d hardware contexts", n, cfg.Contexts)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultConfig().MaxSteps
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = DefaultConfig().Quantum
	}
	return &Runner{
		core:         core,
		cfg:          cfg,
		src:          src,
		latencies:    make([]uint64, n),
		blockedUntil: make([]uint64, n),
		start:        core.Now,
	}, nil
}

// Done reports whether the source has run dry.
func (rn *Runner) Done() bool { return rn.done }

// Steps returns the instructions retired so far.
func (rn *Runner) Steps() uint64 { return rn.steps }

// Run advances the multiplexed contexts until the core clock reaches
// deadline or the source has nothing pending. done=false means the
// deadline passed; call again with a later one. Three clips keep a
// sliced run identical to an unsliced one: the busy budget handed to
// the block engine never extends past the deadline or the source's
// next arrival (in block mode the clock advances by exactly the busy
// cycles retired, so a budget stop lands on the boundary), and an
// all-blocked idle advance stops at the deadline (the remaining idle
// is re-derived next call from blockedUntil, so splitting the wait
// changes no state).
//
//shsim:cycle-entry
//shsim:noalloc
func (rn *Runner) Run(deadline uint64) (bool, error) {
	if rn.done {
		return true, nil
	}
	core, cfg, src := rn.core, rn.cfg, rn.src
	n := src.Len()
	for src.Pending() {
		if core.Now >= deadline {
			return false, nil
		}
		if rn.steps >= cfg.MaxSteps {
			return false, errMaxSteps
		}
		next, ok := src.Poll()
		now := core.Now
		// Pick the next runnable context, round-robin from cur. Contexts
		// skipped over (earlier in scan order but currently blocked) may
		// unblock while the picked one runs; preemptAt records the
		// earliest such wake-up so the block engine hands control back at
		// exactly the instruction boundary where the per-instruction loop
		// would have re-picked them.
		picked := -1
		preemptAt := uint64(0)
		for off := 0; off < n; off++ {
			i := (rn.cur + off) % n
			if !src.RunnableAt(i) {
				continue
			}
			if rn.blockedUntil[i] <= now {
				picked = i
				break
			}
			if preemptAt == 0 || rn.blockedUntil[i] < preemptAt {
				preemptAt = rn.blockedUntil[i]
			}
		}
		if picked < 0 {
			// Every runnable context is blocked on memory (preemptAt is
			// the earliest fill), or none has work: idle to the earliest
			// wake-up, arrival or deadline. This is the exposed stall SMT
			// cannot hide.
			wake := preemptAt
			if ok && (wake == 0 || next < wake) {
				wake = next
			}
			if wake == 0 || wake > deadline {
				if deadline == ^uint64(0) {
					return false, errDeadlock
				}
				wake = deadline
			}
			rn.idle += wake - now
			core.AdvanceIdle(wake - now)
			continue
		}
		// The busy budget is the remaining slice, clipped to the next
		// wake-up of a skipped-over peer, the deadline and the next
		// arrival: in block mode the clock advances by exactly the busy
		// cycles retired, so a budget of (preemptAt − now) stops at the
		// first boundary where that peer is runnable.
		budget := cfg.Quantum - rn.sliceUsed
		if preemptAt > now && preemptAt-now < budget {
			budget = preemptAt - now
		}
		if clip := exec.Budget(now, deadline, next, ok); clip != 0 && clip < budget {
			budget = clip
		}
		ctx := src.TaskAt(picked).Ctx
		if err := core.RunBlock(ctx, true, cfg.MaxSteps-rn.steps, budget, &rn.r); err != nil {
			return false, err
		}
		rn.steps += rn.r.Steps
		rn.sliceUsed += rn.r.Busy
		rotate := false
		if rn.r.Stall > 0 {
			// Block on the fill; the hardware switches to a peer for free.
			rn.blockedUntil[picked] = core.Now + rn.r.Stall
			ctx.StallCycles += rn.r.Stall
			rotate = true
		}
		if rn.r.Halted {
			rn.latencies[picked] = core.Now - rn.start
			if err := src.HaltAt(picked); err != nil {
				return false, err
			}
			rotate = true
		}
		if rotate || rn.sliceUsed >= cfg.Quantum {
			rn.cur = (picked + 1) % n
			rn.sliceUsed = 0
		}
	}
	rn.done = true
	return true, nil
}

// Stats assembles the run statistics; the fields match what the free
// Run would have returned for the same inputs.
func (rn *Runner) Stats() Stats {
	st := Stats{
		Cycles:    rn.core.Now - rn.start,
		Idle:      rn.idle,
		Latencies: rn.latencies,
	}
	for i := 0; i < rn.src.Len(); i++ {
		c := rn.src.TaskAt(i).Ctx
		st.Busy += c.BusyCycles
		st.Retired += c.Retired
	}
	return st
}
