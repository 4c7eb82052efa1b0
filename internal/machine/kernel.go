package machine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/smt"
	"repro/internal/trace"
)

// Machine is a running many-core simulation. Build one with New, drive
// it with Step (one quantum at a time) or Run (to completion), then
// Close. A Machine is not safe for concurrent use: Step and Run must be
// called from one goroutine (the kernel goroutine), which is also the
// only place the shared LLC commits.
type Machine struct {
	topo  Topology
	rc    RunConfig
	llc   *mem.SharedLLC
	cores []*coreRunner

	quantum  uint64
	deadline uint64
	quanta   uint64

	started  bool
	finished bool
	closed   bool
	err      error
}

// coreRunner is one simulated core: its harness-built scenario, the
// engine advancing it, per-core observability, and the worker-goroutine
// handshake channels.
type coreRunner struct {
	id   int
	mach core.Machine

	ts   *core.TaskSet
	ex   *exec.Executor // ModeSymmetric / ModeSolo
	tick *exec.Ticker
	smt  *smt.Runner // ModeSMT
	cpu  *cpu.Core   // the core driving the engine

	view *mem.LLCView
	reg  *metrics.Registry
	ring *trace.Ring
	// sched receives the request latencies when the core finishes
	// (symmetric and SMT modes; nil for solo runs, which serve no
	// requests, and when observability is off).
	sched *metrics.Registry

	done bool
	err  error

	start chan uint64   // kernel → worker: quantum deadline
	ack   chan struct{} // worker → kernel: quantum complete
}

// run advances the core's engine to the deadline.
//
//shsim:quantum-phase
func (c *coreRunner) run(deadline uint64) (bool, error) {
	if c.tick != nil {
		done, err := c.tick.Run(deadline)
		if done && err == nil {
			c.recordRequests(c.tick.Stats().Latencies)
		}
		return done, err
	}
	done, err := c.smt.Run(deadline)
	if done && err == nil {
		c.recordRequests(c.smt.Stats().Latencies)
	}
	return done, err
}

// recordRequests records each task's completion latency in the Sched
// section once the core finishes, as internal/sched does at the end of
// a classic single-core run, so many-core runs report request
// latencies too.
func (c *coreRunner) recordRequests(latencies []uint64) {
	m := c.sched
	if m == nil {
		return
	}
	m.Sched.Requests += uint64(len(latencies))
	for _, l := range latencies {
		m.Sched.RequestLatency.Observe(l)
	}
}

// loop is the worker goroutine: one quantum per handshake. It performs
// no allocation and exits when the kernel closes the start channel.
//
//shsim:quantum-phase
func (c *coreRunner) loop() {
	for deadline := range c.start {
		if !c.done && c.err == nil {
			done, err := c.run(deadline)
			c.done = done
			c.err = err
		}
		c.ack <- struct{}{}
	}
}

// New builds a many-core machine: per-core harnesses (each core
// composes the workload over its own memory with its strided seed),
// per-core engines, and — for multi-core topologies — the shared LLC
// attached to every core's hierarchy in core-index order.
func New(topo Topology, rc RunConfig) (*Machine, error) {
	topo = topo.withDefaults()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := rc.validate(topo.Cores); err != nil {
		return nil, err
	}
	part := rc.Part
	if part == "" {
		part = rc.Spec.Name()
	}

	m := &Machine{topo: topo, rc: rc, quantum: topo.Quantum}
	if topo.Cores > 1 {
		llc, err := mem.NewSharedLLC(topo.LLC)
		if err != nil {
			return nil, err
		}
		m.llc = llc
	}

	for i := 0; i < topo.Cores; i++ {
		c := &coreRunner{
			id:    i,
			mach:  topo.CoreMachine(i),
			start: make(chan uint64),
			ack:   make(chan struct{}),
		}
		h, err := core.NewHarness(c.mach, rc.Spec)
		if err != nil {
			return nil, fmt.Errorf("machine: core %d: %w", i, err)
		}
		img := h.Baseline()
		if rc.Metrics {
			c.reg = &metrics.Registry{}
		}
		if rc.TraceN > 0 {
			c.ring = trace.NewRing(rc.TraceN)
		}
		count := rc.Tasks
		if rc.Mode == ModeSolo {
			count = 1
		}
		ts, err := h.Tasks(img, part, coro.Primary, count)
		if err != nil {
			return nil, fmt.Errorf("machine: core %d: %w", i, err)
		}
		c.ts = ts

		switch rc.Mode {
		case ModeSymmetric, ModeSolo:
			cfg := rc.Exec
			if cfg.Tracer == nil && c.ring != nil {
				cfg.Tracer = c.ring
			}
			if cfg.Metrics == nil {
				cfg.Metrics = c.reg
			}
			ex := h.NewExecutor(img, cfg)
			c.ex = ex
			c.cpu = ex.Core
			if m.llc != nil {
				c.view = m.llc.NewView(i)
				ex.Core.Hier.AttachLLC(c.view)
			}
			tick, err := ex.NewTicker(ts.Tasks, rc.Mode == ModeSolo)
			if err != nil {
				return nil, fmt.Errorf("machine: core %d: %w", i, err)
			}
			c.tick = tick
			if rc.Mode == ModeSymmetric {
				c.sched = cfg.Metrics
			}
		case ModeSMT:
			cpuCore := cpu.MustNewCore(c.mach.CPU, img.Prog, h.Sc.Mem, mem.MustNewHierarchy(c.mach.Mem))
			c.cpu = cpuCore
			if m.llc != nil {
				c.view = m.llc.NewView(i)
				cpuCore.Hier.AttachLLC(c.view)
			}
			ctxs := make([]*coro.Context, len(ts.Tasks))
			for j, t := range ts.Tasks {
				ctxs[j] = t.Ctx
			}
			smtCfg := rc.SMT
			if smtCfg.Contexts == 0 {
				smtCfg.Contexts = len(ctxs)
			}
			rn, err := smt.NewRunner(cpuCore, smtCfg, ctxs)
			if err != nil {
				return nil, fmt.Errorf("machine: core %d: %w", i, err)
			}
			c.smt = rn
			c.sched = c.reg
		}
		m.cores = append(m.cores, c)
	}
	return m, nil
}

// Step runs one cycle quantum: every core advances to the next deadline
// on its own goroutine, the kernel waits for all of them at the
// barrier, and the shared LLC commits the quantum's traffic in
// core-index order. Returns done=true once every core has halted (or an
// error stopped the run). The steady-state path performs no allocation.
//
// Step is the barrier: the only place shared LLC state commits, and a
// cycle-domain entry point in its own right (all forward progress of
// the many-core clock flows through here).
//
//shsim:commit-phase
//shsim:cycle-entry
func (m *Machine) Step() (bool, error) {
	if m.finished || m.closed {
		return true, m.err
	}
	if !m.started {
		for _, c := range m.cores {
			go c.loop()
		}
		m.started = true
	}
	m.deadline += m.quantum
	for _, c := range m.cores {
		c.start <- m.deadline
	}
	for _, c := range m.cores {
		<-c.ack
	}
	if m.llc != nil {
		m.llc.Commit()
	}
	m.quanta++
	all := true
	for _, c := range m.cores {
		if c.err != nil {
			m.err = fmt.Errorf("machine: core %d: %w", c.id, c.err)
			m.finished = true
			return true, m.err
		}
		if !c.done {
			all = false
		}
	}
	m.finished = all
	return m.finished, nil
}

// Run steps the machine to completion, validates every core's
// architectural results against the workload's expectations, and
// returns the per-core and aggregate statistics.
func (m *Machine) Run() (Stats, error) {
	defer m.Close()
	for {
		done, err := m.Step()
		if err != nil {
			return Stats{}, err
		}
		if done {
			break
		}
	}
	for _, c := range m.cores {
		if err := c.ts.Validate(); err != nil {
			return Stats{}, fmt.Errorf("machine: core %d: %w", c.id, err)
		}
	}
	return m.stats(), nil
}

// Close shuts the worker goroutines down. Idempotent; the Machine
// cannot be stepped afterwards.
func (m *Machine) Close() {
	if m.closed {
		return
	}
	m.closed = true
	if m.started {
		for _, c := range m.cores {
			close(c.start)
		}
	}
}

// Quanta returns the number of quanta stepped so far.
func (m *Machine) Quanta() uint64 { return m.quanta }

// TraceRing returns core i's trace ring, or nil when tracing is off.
func (m *Machine) TraceRing(i int) *trace.Ring { return m.cores[i].ring }
