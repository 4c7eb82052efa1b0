package exec

import (
	"fmt"

	"repro/internal/coro"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
)

// RunSolo executes a single task to completion. Yields retire but never
// switch (there is nobody to switch to) — this measures both the baseline
// and the pure overhead of instrumentation on an otherwise idle runtime.
//
//shsim:cycle-entry
func (e *Executor) RunSolo(t *Task) (Stats, error) {
	return e.runTicker([]*Task{t}, true)
}

// RunSymmetric interleaves equal-priority tasks: every primary-phase yield
// rotates to the next runnable task (conditional yields stay dormant —
// every task runs in primary mode). This is the batch/throughput discipline
// of CoroBase-style systems.
//
//shsim:cycle-entry
func (e *Executor) RunSymmetric(tasks []*Task) (Stats, error) {
	return e.runTicker(tasks, false)
}

// runTicker runs a fixed task set to completion on a Ticker.
func (e *Executor) runTicker(tasks []*Task, solo bool) (Stats, error) {
	t, err := e.NewTicker(tasks, solo)
	if err != nil {
		return Stats{}, err
	}
	if _, err := t.Run(^uint64(0)); err != nil {
		return Stats{}, err
	}
	return t.Stats(), nil
}

// RunDualMode executes one latency-sensitive primary with a pool of
// scavengers (§3.3, asymmetric concurrency).
//
// Discipline:
//   - The primary runs until a primary-phase YIELD (inserted before a
//     likely miss, after its prefetch). The executor sizes the hide window
//     from the prefetch's residual fill time and switches to a scavenger.
//   - A scavenger hands the CPU back at the first conditional yield once
//     the window has elapsed. If it hits a primary-phase yield of its own
//     (its own likely miss) it chains to another scavenger instead,
//     scaling concurrency on demand; with no peer available it simply
//     keeps running (and absorbs its own stall).
//   - Scavenger halts rotate to the next scavenger, or return to the
//     primary when the pool is exhausted.
//
// The run ends when the primary halts (then optionally drains scavengers).
//
//shsim:cycle-entry
func (e *Executor) RunDualMode(primary *Task, scavengers []*Task) (Stats, error) {
	primary.Mode = coro.Primary
	primary.Ctx.Mode = coro.Primary
	for _, s := range scavengers {
		s.Mode = coro.Scavenger
		s.Ctx.Mode = coro.Scavenger
	}
	start := e.Core.Now
	st := Stats{}

	cur := primary
	scavIdx := 0
	var episodeStart, episodeTarget uint64
	inEpisode := false

	nextScavenger := func(exclude *Task) *Task {
		for off := 0; off < len(scavengers); off++ {
			s := scavengers[(scavIdx+off)%len(scavengers)]
			if s != exclude && !s.Ctx.Halted {
				scavIdx = (scavIdx + off + 1) % len(scavengers)
				return s
			}
		}
		return nil
	}

	endEpisode := func() {
		if inEpisode {
			inEpisode = false
			away := e.Core.Now - episodeStart
			if away > episodeTarget {
				st.PrimaryDelay += away - episodeTarget
			}
			if m := e.Cfg.Metrics; m != nil {
				m.Exec.NoteEpisode(away, episodeTarget)
			}
			e.emit(trace.EpisodeEnd, primary, away)
		}
	}

	backToPrimary := func() {
		endEpisode()
		cur = primary
		e.resume(primary)
	}

	var steps uint64
	var r cpu.BlockResult
	for {
		if steps >= e.Cfg.MaxSteps {
			return Stats{}, ErrFuelExhausted
		}
		if err := e.Core.RunBlock(cur.Ctx, false, e.Cfg.MaxSteps-steps, 0, &r); err != nil {
			return Stats{}, err
		}
		steps += r.Steps

		if r.Halted {
			e.emit(trace.Halt, cur, 0)
			if cur == primary {
				st.PrimaryLatency = e.Core.Now - start
				break
			}
			if next := nextScavenger(cur); next != nil {
				cur = next
				e.resume(cur)
				if inEpisode {
					st.ChainSwitches++
					if m := e.Cfg.Metrics; m != nil {
						m.Exec.Chains++
					}
				}
				continue
			}
			backToPrimary()
			continue
		}

		if r.Yield { // primary-phase yield: a likely miss was prefetched
			if cur == primary {
				next := nextScavenger(nil)
				if next == nil {
					continue // nobody to hide behind; eat the miss
				}
				target := e.Cfg.HideTarget
				var residual uint64
				if cur.Ctx.LastPrefetchValid {
					residual = e.Core.Hier.Residual(cur.Ctx.LastPrefetchAddr, e.Core.Now)
				}
				if cur.Ctx.AccelPending && cur.Ctx.AccelDone > e.Core.Now {
					if r := cur.Ctx.AccelDone - e.Core.Now; r > residual {
						residual = r
					}
				}
				if e.Cfg.HWAssist && (cur.Ctx.LastPrefetchValid || cur.Ctx.AccelPending) {
					// §4.1 probe: skip the switch when every pending event
					// has already completed (line cached, accelerator done).
					e.Core.AdvanceIdle(e.Cfg.HWAssistProbeCost)
					satisfied := residual == 0
					if satisfied && cur.Ctx.LastPrefetchValid &&
						!e.Core.Hier.Contains(cur.Ctx.LastPrefetchAddr, e.Core.Now, mem.LevelL2) {
						satisfied = false
					}
					if satisfied {
						st.HWSkips++
						if m := e.Cfg.Metrics; m != nil {
							m.Exec.HWSkips++
						}
						e.emit(trace.Skip, cur, 0)
						continue
					}
				}
				if residual > 0 {
					target = residual
				}
				st.Episodes++
				inEpisode = true
				episodeStart = e.Core.Now
				episodeTarget = target
				e.emit(trace.EpisodeStart, primary, target)
				e.switchFrom(primary, r.LiveMask)
				cur = next
				e.resume(cur)
			} else {
				// A scavenger hit its own likely miss: chain onward.
				if next := nextScavenger(cur); next != nil {
					e.switchFrom(cur, r.LiveMask)
					e.emit(trace.Chain, cur, 0)
					cur = next
					e.resume(cur)
					if inEpisode {
						st.ChainSwitches++
						if m := e.Cfg.Metrics; m != nil {
							m.Exec.Chains++
						}
					}
				}
				// else: no peer; keep running and absorb the stall.
			}
			continue
		}

		if r.CondYield && cur != primary {
			// Scavenger-phase yield: hand back once the window elapsed.
			if inEpisode && e.Core.Now-episodeStart >= episodeTarget {
				e.switchFrom(cur, r.LiveMask)
				backToPrimary()
			}
			continue
		}
	}

	if e.Cfg.KeepScavengersAfterPrimary {
		// Drain remaining scavengers round-robin (pure throughput mode).
		rem := make([]*Task, 0, len(scavengers))
		for _, s := range scavengers {
			if !s.Ctx.Halted {
				rem = append(rem, s)
			}
		}
		if len(rem) > 0 {
			if _, err := e.RunSymmetric(rem); err != nil {
				return Stats{}, err
			}
		}
	}

	st.Cycles = e.Core.Now - start
	collect(&st, append([]*Task{primary}, scavengers...)...)
	return st, nil
}

// RunWindowed processes a stream of tasks through a bounded window of W
// concurrently interleaved coroutines: when one completes, the next task
// from the stream takes its slot. This is the execution model of
// coroutine-oriented database engines (a batch of requests in flight,
// replenished as they retire) and the embodiment of the paper's intro
// point that software mechanisms support on-demand scaling of
// concurrency: W is a runtime knob, not a hardware property.
//
//shsim:cycle-entry
func (e *Executor) RunWindowed(stream []*Task, width int) (Stats, error) {
	if len(stream) == 0 {
		return Stats{}, fmt.Errorf("exec: no tasks")
	}
	if width < 1 {
		return Stats{}, fmt.Errorf("exec: window width must be ≥ 1")
	}
	for _, t := range stream {
		t.Mode = coro.Primary
		t.Ctx.Mode = coro.Primary
	}
	start := e.Core.Now
	window := make([]*Task, 0, width)
	next := 0
	for next < len(stream) && len(window) < width {
		window = append(window, stream[next])
		next++
	}
	cur := 0
	var steps uint64
	var r cpu.BlockResult
	e.resume(window[cur])
	for len(window) > 0 {
		if steps >= e.Cfg.MaxSteps {
			return Stats{}, ErrFuelExhausted
		}
		t := window[cur]
		if err := e.Core.RunBlock(t.Ctx, false, e.Cfg.MaxSteps-steps, 0, &r); err != nil {
			return Stats{}, err
		}
		steps += r.Steps
		switch {
		case r.Halted:
			e.emit(trace.Halt, t, 0)
			if next < len(stream) {
				// Replenish the slot from the stream.
				window[cur] = stream[next]
				next++
				e.resume(window[cur])
			} else {
				window = append(window[:cur], window[cur+1:]...)
				if len(window) == 0 {
					break
				}
				cur %= len(window)
				e.resume(window[cur])
			}
		case r.Yield:
			if len(window) > 1 {
				e.switchFrom(t, r.LiveMask)
				cur = (cur + 1) % len(window)
				e.resume(window[cur])
			}
		}
	}
	st := Stats{Cycles: e.Core.Now - start}
	collect(&st, stream...)
	return st, nil
}
