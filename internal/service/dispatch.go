package service

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// serveCore is one core of a multi-core serving cell: a dispatched cell
// (no arrival process of its own) advanced one quantum per handshake on
// its own goroutine, exactly like internal/machine's coreRunner. The
// two plain channel operations per quantum are both the determinism
// barrier and the happens-before edges the race detector needs.
type serveCore struct {
	c     *cell
	start chan uint64   // dispatcher → core: quantum deadline
	ack   chan struct{} // core → dispatcher: quantum complete
	err   error
}

// loop is the core goroutine: one quantum per handshake, no allocation,
// exits when the dispatcher closes the start channel.
//
//shsim:quantum-phase
func (sc *serveCore) loop() {
	for deadline := range sc.start {
		if sc.err == nil {
			sc.err = sc.run(deadline)
		}
		sc.ack <- struct{}{}
	}
}

// run advances the core's policy engine to the deadline, then tops the
// clock up to the barrier: engines return with Now ≥ deadline on every
// nil path, but an idle top-up here keeps the invariant local and
// guards causality — a core whose clock lagged the barrier could
// otherwise complete a request before its recorded arrival.
//
//shsim:quantum-phase
func (sc *serveCore) run(deadline uint64) error {
	if err := sc.c.run(deadline); err != nil {
		return err
	}
	if now := sc.c.ex.Core.Now; now < deadline {
		sc.c.ex.Core.AdvanceIdle(deadline - now)
	}
	return nil
}

// dispatcher serves one multi-core cell: a single open-loop arrival
// stream (seeded from the template machine, unstrided) feeds the shared
// bounded admission queue; at every quantum barrier the dispatcher
// drains it into per-core local run queues in deterministic core-index
// order, using each core's queue depth plus in-flight count as of the
// just-committed quantum as the load signal (one-quantum-lag feedback,
// mirroring the LLC commit protocol). Cores then advance one quantum
// concurrently against frozen shared-LLC state, and their traffic
// commits in core-index order — so the whole cell is a pure function of
// (machine, config, cell), byte-identical at any GOMAXPROCS.
type dispatcher struct {
	cfg  Config
	cl   Cell
	topo machine.Topology
	llc  *mem.SharedLLC

	cores []*serveCore

	arr         *Arrivals
	nextArrival uint64
	generated   uint64

	shared  queue  // bounded admission queue (capacity cfg.Queue)
	dropped uint64 // rejected at a full admission queue

	barrier uint64 // last committed barrier cycle
	started bool
	closed  bool
}

// newDispatcher builds the per-core cells (each over its strided
// CoreMachine, its view of the shared LLC attached in core-index
// order) and the one shared arrival process.
func newDispatcher(mach core.Machine, cfg Config, cl Cell) (*dispatcher, error) {
	topo := cfg.Topology
	topo.Machine = mach
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	llc, err := mem.NewSharedLLC(topo.LLC)
	if err != nil {
		return nil, err
	}
	d := &dispatcher{cfg: cfg, cl: cl, topo: topo, llc: llc, shared: newQueue(cfg.Queue)}
	for i := 0; i < topo.Cores; i++ {
		c, err := newCell(topo.CoreMachine(i), cfg, cl, false)
		if err != nil {
			return nil, fmt.Errorf("service: core %d: %w", i, err)
		}
		c.ex.Core.Hier.AttachLLC(llc.NewView(i))
		// The local run queue stages assigned-but-undispatched work; one
		// slot's worth per worker keeps assignment reactive (work waits
		// in the shared queue, where the balancer can still steer it,
		// rather than behind one core).
		c.q = newQueue(len(c.slots))
		d.cores = append(d.cores, &serveCore{
			c:     c,
			start: make(chan uint64),
			ack:   make(chan struct{}),
		})
	}
	spec := cfg.Arrivals
	spec.Rate = cl.Rate
	arr, err := NewArrivals(spec, mach.Seed)
	if err != nil {
		return nil, err
	}
	d.arr = arr
	d.nextArrival = arr.Next()
	return d, nil
}

// runCellMulti serves one cell over cfg.Topology.Cores cores.
func runCellMulti(mach core.Machine, cfg Config, cl Cell) (CellStats, error) {
	d, err := newDispatcher(mach, cfg, cl)
	if err != nil {
		return CellStats{}, err
	}
	defer d.close()
	if err := d.serve(); err != nil {
		return CellStats{}, err
	}
	return d.stats(), nil
}

// pump admits every arrival due at or before the committed barrier into
// the shared admission queue. Arrivals inside the quantum just run wait
// for its barrier — the same one-quantum lag the LLC commit imposes on
// contention — so admission order is a pure function of the arrival
// process, never of core timing.
func (d *dispatcher) pump() {
	for d.generated < uint64(d.cfg.Requests) && d.nextArrival <= d.barrier {
		if !d.shared.push(request{id: d.generated, arrival: d.nextArrival}) {
			d.dropped++
		}
		d.generated++
		if d.generated < uint64(d.cfg.Requests) {
			d.nextArrival = d.arr.Next()
		}
	}
}

// assign drains the shared queue into per-core local queues: each
// request goes to the least-loaded core (local queue depth plus
// in-flight requests, as of the committed barrier), lowest index
// winning ties. Assignment stops when every local queue is full — the
// remainder waits in the shared queue where the next barrier's load
// signal can still steer it.
func (d *dispatcher) assign() {
	for !d.shared.empty() {
		best, bestLoad := -1, 0
		for i, sc := range d.cores {
			c := sc.c
			if c.q.n == len(c.q.buf) {
				continue
			}
			load := c.q.n + len(c.fifo)
			if best < 0 || load < bestLoad {
				best, bestLoad = i, load
			}
		}
		if best < 0 {
			return
		}
		req, _ := d.shared.pop()
		c := d.cores[best].c
		c.reg.Service.Arrivals++
		c.reg.Service.Admitted++
		c.q.push(req)
	}
}

// step runs one cycle quantum: every core advances to the next barrier
// on its own goroutine, the dispatcher waits for all of them, and the
// shared LLC commits the quantum's traffic in core-index order. The
// steady-state path performs no allocation.
//
//shsim:commit-phase
//shsim:cycle-entry
func (d *dispatcher) step() error {
	if !d.started {
		for _, sc := range d.cores {
			go sc.loop()
		}
		d.started = true
	}
	d.barrier += d.topo.Quantum
	for _, sc := range d.cores {
		sc.start <- d.barrier
	}
	for _, sc := range d.cores {
		<-sc.ack
	}
	d.llc.Commit()
	var steps uint64
	for i, sc := range d.cores {
		if sc.err != nil {
			return fmt.Errorf("service: core %d: %w", i, sc.err)
		}
		steps += sc.c.engineSteps()
	}
	if steps > d.cfg.MaxSteps {
		return fmt.Errorf("service: MaxSteps exceeded across %d cores (%s at rate %g)",
			d.topo.Cores, d.cl.Policy, d.cl.Rate)
	}
	return nil
}

// drained reports whether the cell is finished: every request
// generated, and no work waiting or in flight anywhere.
func (d *dispatcher) drained() bool {
	if d.generated < uint64(d.cfg.Requests) || !d.shared.empty() {
		return false
	}
	for _, sc := range d.cores {
		if !sc.c.q.empty() || len(sc.c.fifo) > 0 {
			return false
		}
	}
	return true
}

// reconcile checks request conservation at cell end: every generated
// request ended as exactly one of completed, dropped or shed.
func (d *dispatcher) reconcile() error {
	done := d.dropped
	for _, sc := range d.cores {
		s := &sc.c.reg.Service
		done += s.Completed + s.Shed
	}
	if done != d.generated {
		return fmt.Errorf("service: conservation violated — %d requests generated, %d accounted for", d.generated, done)
	}
	return nil
}

// serve is the dispatch loop: admit (pump), balance (assign), then one
// quantum (step), until the cell drains. All forward progress of the
// multi-core serving clock flows through here.
//
//shsim:cycle-entry
func (d *dispatcher) serve() error {
	for {
		d.pump()
		d.assign()
		if d.drained() {
			return d.reconcile()
		}
		if err := d.step(); err != nil {
			return err
		}
	}
}

// close shuts the core goroutines down. Idempotent.
func (d *dispatcher) close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.started {
		for _, sc := range d.cores {
			close(sc.start)
		}
	}
}

// stats merges the per-core summaries into one CellStats: counters sum,
// per-core sojourn histograms fold together bucket-wise (exactly
// equivalent to one histogram observing every request), quantiles come
// from the merged histogram, and the cell's wall clock is the furthest
// core clock.
func (d *dispatcher) stats() CellStats {
	var merged metrics.FineHist
	cs := CellStats{
		Policy:   d.cl.Policy,
		Rate:     d.cl.Rate,
		Cores:    d.topo.Cores,
		Requests: d.generated,
		Dropped:  d.dropped,
	}
	for _, sc := range d.cores {
		c := sc.c
		s := &c.reg.Service
		cs.Completed += s.Completed
		cs.Shed += s.Shed
		cs.BatchOps += s.BatchOps
		cs.Episodes += c.reg.Exec.Episodes
		cs.Chains += c.reg.Exec.Chains
		merged.Merge(&s.Sojourn)
		if now := c.ex.Core.Now; now > cs.Cycles {
			cs.Cycles = now
		}
		for _, sl := range c.slots {
			cs.Switches += sl.task.Ctx.Switches
		}
		for _, b := range c.batch {
			cs.Switches += b.task.Ctx.Switches
		}
	}
	cs.P50 = merged.Quantile(0.50)
	cs.P99 = merged.Quantile(0.99)
	cs.P999 = merged.Quantile(0.999)
	cs.MeanSojourn = merged.Mean()
	cs.MaxSojourn = merged.Max
	cs.Hist = sojournTable(&merged, d.cl.Policy, d.cl.Rate)
	return cs
}
