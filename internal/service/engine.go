package service

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/exec"
	"repro/internal/instrument"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/smt"
	"repro/internal/workloads"
)

// slot is one worker: a bounded execution context re-armed for request
// after request, so a million-request run needs only Workers contexts.
type slot struct {
	task  *exec.Task
	stack uint64 // this slot's private stack top

	busy       bool
	id         uint64 // request id (selects the instance)
	arrival    uint64 // cycle the request arrived (sojourn base)
	dispatched uint64 // cycle the request took the slot
	expected   uint64 // host-reference result for validation
}

// batchTask is one background task: re-armed with the next instance at
// every halt, so batch work never runs out.
type batchTask struct {
	task  *exec.Task
	stack uint64
	inst  int // instance currently armed
}

// cell is one (policy, rate) point of the sweep: a pure single-threaded
// simulation over its own harness, executor and metrics registry. In a
// multi-core cell each core owns one of these (built from its strided
// per-core machine, arrivals owned by the dispatcher instead), and its
// policy engine runs it one quantum at a time. Slicing an SMT cell is
// byte-identical to running it whole; slicing a coroutine-policy cell
// is not in general, because a quantum stop can fall inside a stall
// that non-block RunBlock absorbs into the clock and so admit an
// arrival one yield earlier (ARCHITECTURE.md §11).
type cell struct {
	cfg  Config
	pol  Policy
	rate float64

	h  *core.Harness
	ex *exec.Executor

	// reg is held by value: a serving cell always records (the sojourn
	// histogram IS the output), so the registry is never nil. The
	// executor observes through &c.reg.
	reg metrics.Registry

	part   *workloads.Part // request part
	entry  int             // request entry in the (possibly rewritten) image
	bpart  *workloads.Part // background part (nil without batch work)
	bentry int

	// arr is the cell-owned arrival process. nil marks a dispatched
	// (multi-core) cell: requests appear in q at quantum barriers via
	// the dispatcher instead of being pumped inline, and the engines run
	// against a quantum deadline rather than to drain.
	arr         *Arrivals
	nextArrival uint64
	generated   uint64

	q     queue
	slots []*slot
	fifo  []int // in-flight slots in arrival order; fifo[0] is the oldest
	batch []*batchTask
	bnext int // next background instance to arm

	// The policy engine. Agnostic and OSThread cells are a source for
	// the symmetric engine (tick), SMT cells for the stall-switch engine
	// (smt); Sidecar and EventAware run runAsym, whose state follows.
	// All three resume at a deadline exactly where the last call
	// stopped, so a multi-core cell runs them one quantum at a time.
	tick *exec.Ticker
	smt  *smt.Runner

	steps     uint64
	r         cpu.BlockResult
	cur       int    // ring entity holding the CPU; -1 = none
	scavIdx   int    // batch rotation cursor
	inEpisode bool   // an open hide episode
	epStart   uint64 // episode start cycle
	epTarget  uint64 // episode hide target
}

// RunCell serves one sweep cell: cfg.Requests requests offered at
// cell.Rate under cell.Policy. It is a pure function of its arguments —
// sweeps may run cells concurrently (each builds its own scenario,
// core and registry) and merge results in grid order. With
// cfg.Topology.Cores > 1 the cell spreads over a many-core machine:
// one arrival stream, per-core policy engines, deterministic quantum
// dispatch (see dispatch.go).
func RunCell(mach core.Machine, cfg Config, cl Cell) (CellStats, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return CellStats{}, err
	}
	if cfg.Topology.Cores > 1 {
		return runCellMulti(mach, cfg, cl)
	}
	c, err := newCell(mach, cfg, cl, true)
	if err != nil {
		return CellStats{}, err
	}
	start := c.ex.Core.Now
	if err := c.run(^uint64(0)); err != nil {
		return CellStats{}, err
	}
	return c.stats(c.ex.Core.Now - start), nil
}

// run advances the cell's policy engine until the cell drains
// (single-core cells, no deadline: ^uint64(0)) or the cycle deadline
// passes (quantum-sliced multi-core cells).
func (c *cell) run(deadline uint64) error {
	var err error
	switch {
	case c.tick != nil:
		_, err = c.tick.Run(deadline)
	case c.smt != nil:
		_, err = c.smt.Run(deadline)
	default:
		err = c.runAsym(deadline)
	}
	return err
}

// engineSteps returns the instructions the policy engine has retired.
func (c *cell) engineSteps() uint64 {
	switch {
	case c.tick != nil:
		return c.tick.Steps()
	case c.smt != nil:
		return c.smt.Steps()
	}
	return c.steps
}

// pipelineOpts builds instrumentation options consistent with the
// machine (the experiment harness uses the same recipe).
func pipelineOpts(mach core.Machine) instrument.PipelineOptions {
	opts := instrument.DefaultPipelineOptions()
	opts.Primary.Machine = mach.Mem
	opts.Primary.CPU = mach.CPU
	opts.Primary.Switch = mach.Switch
	opts.Scavenger.Machine = mach.Mem
	opts.Scavenger.CPU = mach.CPU
	return opts
}

// newCell builds one serving cell over mach. withArrivals selects the
// classic self-clocked form; a dispatched (multi-core) cell leaves arr
// nil — its local queue is fed by the dispatcher at quantum barriers.
func newCell(mach core.Machine, cfg Config, cl Cell, withArrivals bool) (*cell, error) {
	workers := cfg.Workers
	if cl.Policy == Sidecar {
		workers = 1 // the dedicated lane serves strictly one at a time
	}
	specs := []workloads.Spec{cfg.Workload.Request}
	withBatch := cfg.Batch > 0 && cfg.Workload.Background != nil
	if withBatch {
		specs = append(specs, cfg.Workload.Background)
	}
	h, err := core.NewHarness(mach, specs...)
	if err != nil {
		return nil, err
	}
	reqName := cfg.Workload.Request.Name()

	// SMT is hardware-only and runs the uninstrumented binary; every
	// software policy serves the same instrumented image (profile the
	// request part, then insert primary prefetch+yield pairs and
	// scavenger conditional yields), so policies differ only in
	// scheduling, never in code.
	var img *core.Image
	if cl.Policy == SMT {
		img = h.Baseline()
	} else {
		prof, _, err := h.Profile(reqName)
		if err != nil {
			return nil, err
		}
		img, err = h.Instrument(prof, pipelineOpts(mach))
		if err != nil {
			return nil, err
		}
	}

	c := &cell{
		cfg:   cfg,
		pol:   cl.Policy,
		rate:  cl.Rate,
		h:     h,
		part:  h.Sc.Part(reqName),
		entry: img.Entries[reqName],
		q:     newQueue(cfg.Queue),
		cur:   -1,
	}
	execCfg := exec.Config{Switch: mach.Switch, MaxSteps: cfg.MaxSteps, Metrics: &c.reg}
	if cl.Policy == OSThread {
		execCfg.Switch = baselines.OSThreadCostModel()
	}
	c.ex = h.NewExecutor(img, execCfg)
	if len(c.part.Instances) < workers {
		return nil, fmt.Errorf("service: request workload %q provides %d instances for %d workers (each concurrent slot needs its own stack)",
			reqName, len(c.part.Instances), workers)
	}
	for i := 0; i < workers; i++ {
		ctx := coro.NewContext(i, c.entry, c.part.StackTops[i])
		ctx.Name = fmt.Sprintf("worker[%d]", i)
		c.slots = append(c.slots, &slot{task: exec.NewTask(ctx, coro.Primary), stack: c.part.StackTops[i]})
	}
	if withBatch {
		bname := cfg.Workload.Background.Name()
		c.bpart = h.Sc.Part(bname)
		c.bentry = img.Entries[bname]
		if len(c.bpart.Instances) < cfg.Batch {
			return nil, fmt.Errorf("service: background workload %q provides %d instances for %d batch tasks",
				bname, len(c.bpart.Instances), cfg.Batch)
		}
		for k := 0; k < cfg.Batch; k++ {
			ctx := coro.NewContext(workers+k, c.bentry, c.bpart.StackTops[k])
			ctx.Name = fmt.Sprintf("batch[%d]", k)
			b := &batchTask{task: exec.NewTask(ctx, coro.Scavenger), stack: c.bpart.StackTops[k]}
			c.armBatch(b)
			c.batch = append(c.batch, b)
		}
		c.reg.Sched.BatchTasks = uint64(cfg.Batch)
	}
	switch cl.Policy {
	case Agnostic, OSThread:
		c.tick = c.ex.NewSourceTicker(c)
	case SMT:
		// One hardware context per worker slot and batch task; the
		// cell, not the part, bounds concurrency.
		c.smt, err = smt.NewSourceRunner(c.ex.Core, smt.Config{
			Contexts: c.Len(),
			Quantum:  smt.DefaultConfig().Quantum,
			MaxSteps: cfg.MaxSteps,
		}, c)
		if err != nil {
			return nil, err
		}
	}

	if withArrivals {
		spec := cfg.Arrivals
		spec.Rate = cl.Rate
		arr, err := NewArrivals(spec, mach.Seed)
		if err != nil {
			return nil, err
		}
		c.arr = arr
		c.nextArrival = arr.Next()
	}
	return c, nil
}

// The cell is the exec.Source its policy engine draws from. Interface
// calls give the static proofs no call edges, so each method the
// engines reach through the source is a cycle-domain root in its own
// right (detflow) and runs on a core goroutine during quanta
// (barrierguard).

// Pending reports whether the engine loop has more to do. A
// self-clocked cell drains its own request budget: every request ends
// as exactly one of completed, dropped or shed. A dispatched cell runs
// until its quantum deadline — the dispatcher, not the core, decides
// when the cell as a whole is drained — so here it is always pending
// and the deadline check in the engine loop is the only exit.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) Pending() bool {
	if c.arr == nil {
		return true
	}
	s := &c.reg.Service
	return s.Completed+s.Dropped+s.Shed < uint64(c.cfg.Requests)
}

// Poll admits every arrival due by the current cycle and dispatches
// queued requests into free slots. It returns the cycle of the next
// arrival while the cell's own arrival process has requests left to
// generate; dispatched cells have none, their work appears only at
// quantum barriers.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) Poll() (uint64, bool) {
	c.pump()
	c.fill()
	return c.nextArrival, c.arr != nil && c.generated < uint64(c.cfg.Requests)
}

// pump admits every arrival due at or before the current cycle. After
// pump, either all requests have been generated or the next arrival is
// strictly in the future — which is what makes the engines' arrival
// clip a positive budget. Dispatched cells have no arrival process:
// their queue is fed at quantum barriers and pump is a no-op.
func (c *cell) pump() {
	if c.arr == nil {
		return
	}
	now := c.ex.Core.Now
	for c.generated < uint64(c.cfg.Requests) && c.nextArrival <= now {
		c.reg.Service.Arrivals++
		if c.q.push(request{id: c.generated, arrival: c.nextArrival}) {
			c.reg.Service.Admitted++
		} else {
			c.reg.Service.Dropped++
		}
		c.generated++
		if c.generated < uint64(c.cfg.Requests) {
			c.nextArrival = c.arr.Next()
		}
	}
}

// arm points s at req: restore the instance's initial registers on the
// slot's private stack and clear all per-run context state. Accounting
// counters survive — they aggregate across requests.
func (c *cell) arm(s *slot, req request) {
	inst := &c.part.Instances[int(req.id%uint64(len(c.part.Instances)))]
	rearm(s.task, inst, s.stack, c.entry)
	s.busy = true
	s.id = req.id
	s.arrival = req.arrival
	s.dispatched = c.ex.Core.Now
	s.expected = inst.Expected
}

// armBatch re-arms b with the next background instance.
func (c *cell) armBatch(b *batchTask) {
	b.inst = c.bnext % len(c.bpart.Instances)
	c.bnext++
	rearm(b.task, &c.bpart.Instances[b.inst], b.stack, c.bentry)
}

// rearm restarts t at entry with inst's initial registers on the given
// stack, clearing all per-run context state.
func rearm(t *exec.Task, inst *workloads.Instance, stack uint64, entry int) {
	ctx := t.Ctx
	ctx.Regs = inst.Regs
	ctx.Regs[isa.SP] = stack
	ctx.PC = entry
	ctx.Flags = 0
	ctx.Halted = false
	ctx.Result = 0
	ctx.LastPrefetchValid = false
	ctx.AccelPending = false
	t.Reset()
}

// fill dispatches queued requests into free slots, shedding stale ones.
// Dispatch order is arrival order (the queue is FIFO), so fifo stays
// sorted by arrival.
func (c *cell) fill() {
	for _, s := range c.slots {
		if s.busy {
			continue
		}
		if !c.dispatch(s) {
			return
		}
	}
}

// dispatch pops the next serviceable request into s; false means the
// queue ran dry.
func (c *cell) dispatch(s *slot) bool {
	now := c.ex.Core.Now
	for {
		req, ok := c.q.pop()
		if !ok {
			return false
		}
		if c.cfg.ShedAfter > 0 && now-req.arrival > c.cfg.ShedAfter {
			c.reg.Service.Shed++
			continue
		}
		c.arm(s, req)
		c.fifo = append(c.fifo, s.task.Ctx.ID)
		return true
	}
}

// complete validates and retires the request in s, recording its
// sojourn (arrival → halt) and service (dispatch → halt) times.
func (c *cell) complete(s *slot) error {
	ctx := s.task.Ctx
	if ctx.Result != s.expected {
		return fmt.Errorf("service: request %d computed %d, reference says %d", s.id, ctx.Result, s.expected)
	}
	now := c.ex.Core.Now
	c.reg.Service.Completed++
	c.reg.Service.Sojourn.Observe(now - s.arrival)
	c.reg.Sched.Requests++
	c.reg.Sched.RequestLatency.Observe(now - s.dispatched)
	s.busy = false
	for i, id := range c.fifo {
		if id == ctx.ID {
			c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
			break
		}
	}
	return nil
}

// completeBatch validates the finished batch op and re-arms the task.
func (c *cell) completeBatch(b *batchTask) error {
	if got, want := b.task.Ctx.Result, c.bpart.Instances[b.inst].Expected; got != want {
		return fmt.Errorf("service: batch instance %d computed %d, reference says %d", b.inst, got, want)
	}
	c.reg.Service.BatchOps++
	c.armBatch(b)
	return nil
}

// Ring indexing: entities 0..len(slots)-1 are worker slots,
// len(slots).. are batch tasks.

// Len is the ring size.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) Len() int { return len(c.slots) + len(c.batch) }

// TaskAt returns ring entity i's task.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) TaskAt(i int) *exec.Task {
	if i < len(c.slots) {
		return c.slots[i].task
	}
	return c.batch[i-len(c.slots)].task
}

// RunnableAt reports whether ring entity i has work: busy slots,
// and batch tasks always (they re-arm on halt).
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) RunnableAt(i int) bool {
	if i < len(c.slots) {
		return c.slots[i].busy
	}
	return true
}

// HaltAt retires ring entity i after its context halted.
//
//shsim:cycle-entry
//shsim:quantum-phase
func (c *cell) HaltAt(i int) error {
	if i < len(c.slots) {
		return c.complete(c.slots[i])
	}
	return c.completeBatch(c.batch[i-len(c.slots)])
}

// primary returns the ring entity of the oldest in-flight request,
// or -1 (asymmetric policies).
func (c *cell) primary() int {
	if len(c.fifo) == 0 {
		return -1
	}
	return c.fifo[0]
}

// nextScavenger picks the next shadow-filler: younger in-flight
// requests in arrival order, then batch tasks in rotation.
func (c *cell) nextScavenger(exclude int) int {
	if len(c.fifo) > 1 {
		for _, id := range c.fifo[1:] {
			if id != exclude {
				return id
			}
		}
	}
	for off := 0; off < len(c.batch); off++ {
		k := (c.scavIdx + off) % len(c.batch)
		e := len(c.slots) + k
		if e != exclude {
			c.scavIdx = (k + 1) % len(c.batch)
			return e
		}
	}
	return -1
}

// endEpisode closes an open hide episode, if any.
func (c *cell) endEpisode() {
	if !c.inEpisode {
		return
	}
	c.inEpisode = false
	c.reg.Exec.NoteEpisode(c.ex.Core.Now-c.epStart, c.epTarget)
}

// backToPrimary closes any open episode and resumes the oldest request.
func (c *cell) backToPrimary() {
	c.endEpisode()
	c.cur = c.primary()
	c.ex.Resume(c.TaskAt(c.cur))
}

// runAsym is the Sidecar/EventAware engine: the oldest in-flight
// request is the primary; its miss shadows are filled by scavengers —
// younger in-flight requests first (EventAware only; Sidecar's single
// lane never has any), then batch tasks — using the dual-mode episode
// discipline of exec.RunDualMode. Between requests, batch tasks fill
// the idle core and hand over at their next yield boundary when a
// request arrives.
//
//shsim:cycle-entry
//shsim:noalloc
func (c *cell) runAsym(deadline uint64) error {
	for c.Pending() {
		if c.ex.Core.Now >= deadline {
			return nil
		}
		if c.steps >= c.cfg.MaxSteps {
			return fmt.Errorf("service: MaxSteps exceeded (%s at rate %g)", c.pol, c.rate) //shsim:alloc-ok cold overrun guard; fails the run
		}
		next, ok := c.Poll()
		if c.cur < 0 {
			// Nothing holds the CPU: the oldest request if any, else
			// batch work, else idle to the next arrival.
			if p := c.primary(); p >= 0 {
				c.cur = p
				c.ex.Resume(c.TaskAt(c.cur))
			} else if len(c.batch) > 0 {
				c.cur = len(c.slots) + c.scavIdx%len(c.batch)
				c.scavIdx++
				c.ex.Resume(c.TaskAt(c.cur))
			} else {
				if err := c.ex.Idle(deadline, next, ok); err != nil {
					return err
				}
				continue
			}
		}
		t := c.TaskAt(c.cur)
		isPrimary := c.cur == c.primary()
		if err := c.ex.Core.RunBlock(t.Ctx, false, c.cfg.MaxSteps-c.steps, exec.Budget(c.ex.Core.Now, deadline, next, ok), &c.r); err != nil {
			return err
		}
		c.steps += c.r.Steps
		now := c.ex.Core.Now
		targetMet := c.inEpisode && now-c.epStart >= c.epTarget

		switch {
		case c.r.Halted:
			if err := c.HaltAt(c.cur); err != nil {
				return err
			}
			if isPrimary {
				// The request completed; promote the next oldest. No
				// episode can be open — the primary halts only while
				// running.
				if p := c.primary(); p >= 0 {
					c.cur = p
					c.ex.Resume(c.TaskAt(c.cur))
				} else {
					c.cur = -1
				}
				continue
			}
			// A scavenger finished (younger request served in a shadow,
			// or a batch op — already re-armed). Hand back if the
			// episode's window has elapsed, else keep the shadow full;
			// with nothing in flight, fall back to the idle-fill pick.
			switch {
			case targetMet:
				c.backToPrimary()
			case c.inEpisode:
				if nxt := c.nextScavenger(c.cur); nxt >= 0 {
					if nxt != c.cur {
						c.reg.Exec.Chains++
					}
					c.cur = nxt
					c.ex.Resume(c.TaskAt(c.cur))
				} else {
					c.backToPrimary()
				}
			case c.primary() >= 0:
				c.cur = c.primary()
				c.ex.Resume(c.TaskAt(c.cur))
			default:
				c.cur = -1 // idle fill re-picks at the loop top
			}

		case c.r.Yield:
			if isPrimary {
				// The primary prefetched a likely miss: open a hide
				// episode sized by the prefetch's residual fill time.
				nxt := c.nextScavenger(-1)
				if nxt < 0 {
					continue // nobody to hide behind; eat the miss
				}
				target := c.ex.Cfg.HideTarget
				ctx := t.Ctx
				var residual uint64
				if ctx.LastPrefetchValid {
					residual = c.ex.Core.Hier.Residual(ctx.LastPrefetchAddr, now)
				}
				if ctx.AccelPending && ctx.AccelDone > now {
					if r := ctx.AccelDone - now; r > residual {
						residual = r
					}
				}
				if residual > 0 {
					target = residual
				}
				c.inEpisode = true
				c.epStart = now
				c.epTarget = target
				c.ex.SwitchOut(t, c.r.LiveMask)
				c.cur = nxt
				c.ex.Resume(c.TaskAt(c.cur))
				continue
			}
			// A scavenger hit its own likely miss: chain onward; or, if
			// the lane is idle-filling and a request is now waiting,
			// this yield is the hand-over boundary.
			if !c.inEpisode && c.primary() >= 0 {
				c.ex.SwitchOut(t, c.r.LiveMask)
				c.cur = c.primary()
				c.ex.Resume(c.TaskAt(c.cur))
				continue
			}
			if nxt := c.nextScavenger(c.cur); nxt >= 0 && nxt != c.cur {
				c.ex.SwitchOut(t, c.r.LiveMask)
				c.reg.Exec.Chains++
				c.cur = nxt
				c.ex.Resume(c.TaskAt(c.cur))
			}

		case c.r.CondYield:
			if isPrimary {
				continue // dormant in primary mode
			}
			// Scavenger-phase yield: the hand-back point. Return to the
			// primary once the hide window elapsed, or to a
			// newly-arrived request when the core was idle-filling.
			if targetMet {
				c.ex.SwitchOut(t, c.r.LiveMask)
				c.backToPrimary()
			} else if !c.inEpisode && c.primary() >= 0 {
				c.ex.SwitchOut(t, c.r.LiveMask)
				c.cur = c.primary()
				c.ex.Resume(c.TaskAt(c.cur))
			}
		}
	}
	return nil
}
