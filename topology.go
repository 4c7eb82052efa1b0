package repro

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// This file is the many-core surface: the public API is cut around
// Topology (how many cores, what each looks like, what they share)
// rather than the single-core Machine it generalizes. A session built
// with WithTopology can still do everything a single-core session can —
// Topology{Cores: 1} is the exact reference machine — and additionally
// run whole-machine simulations through Session.RunMachine.

type (
	// Topology describes a many-core machine: core count, the per-core
	// Machine template (optionally overridden per core), the shared
	// banked LLC, and the cycle-quantum length. The zero value of every
	// field defaults sensibly; Topology{Cores: 1} is the single-core
	// reference machine.
	Topology = machine.Topology
	// LLCConfig sizes the shared banked L3 + DRAM model: bank count and
	// geometry, hit/miss latencies, per-quantum bank ports and MSHRs.
	LLCConfig = mem.LLCConfig
	// LLCStats is the shared LLC's counter block for one run.
	LLCStats = mem.LLCStats
	// MachineRun describes what every core of a machine executes: the
	// workload spec, the per-core execution discipline, and the per-core
	// observability (metrics registries, trace rings).
	MachineRun = machine.RunConfig
	// MachineMode selects the per-core execution discipline.
	MachineMode = machine.Mode
	// MachineStats aggregates a many-core run: per-core sections in
	// core-index order plus quantum, cycle, LLC and aggregate rollups.
	MachineStats = machine.Stats
	// MachineCoreStats is one core's section of a MachineStats.
	MachineCoreStats = machine.CoreStats
)

// Per-core execution disciplines for MachineRun.Mode.
const (
	// MachineSymmetric interleaves all workload instances on each core
	// under the symmetric coroutine discipline.
	MachineSymmetric = machine.ModeSymmetric
	// MachineSolo runs one instance per core with no software
	// scheduling — the baseline for scaling measurements.
	MachineSolo = machine.ModeSolo
	// MachineSMT multiplexes each core's instances as hardware threads.
	MachineSMT = machine.ModeSMT
)

// DefaultTopology returns cores reference machines sharing a default
// LLC scaled to the core count.
func DefaultTopology(cores int) Topology { return machine.DefaultTopology(cores) }

// WithTopology replaces the session's machine topology wholesale; a
// single-core machine m is WithTopology(Topology{Cores: 1, Machine: m}).
// WithSeed still applies afterwards, to the per-core template's seed.
func WithTopology(t Topology) Option {
	return func(c *sessionConfig) { c.topo = t }
}

// Topology returns the session's machine topology (by value; mutating
// the copy does not affect the session).
func (s *Session) Topology() Topology { return s.topo }

// RunMachine simulates the session's full topology running rc and
// returns per-core plus aggregate statistics. Every core executes rc's
// workload over its own seeded memory; multi-core topologies contend
// for the shared LLC under the deterministic cycle-quantum kernel, so
// results are byte-identical across runs and GOMAXPROCS settings. When
// the session has a metrics registry, the machine-level rollup is
// recorded in its Machine section.
func (s *Session) RunMachine(rc MachineRun) (MachineStats, error) {
	m, err := machine.New(s.topo, rc)
	if err != nil {
		return MachineStats{}, err
	}
	st, err := m.Run()
	if err != nil {
		return MachineStats{}, err
	}
	st.FillMetrics(s.obs.Metrics)
	return st, nil
}
