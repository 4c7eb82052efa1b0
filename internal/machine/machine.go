// Package machine simulates a many-core machine: each simulated core
// owns a cpu.Core with private L1/L2, all cores share a banked L3 +
// DRAM with bandwidth/MSHR contention (mem.SharedLLC), and a
// cycle-quantum kernel steps every core on its own goroutine inside
// deterministic quanta.
//
// # Determinism
//
// The kernel is a bound-weave simulator (ZSim-style): within a quantum
// every core advances independently against a frozen snapshot of the
// shared-LLC tag state, logging its LLC traffic; at the quantum barrier
// the logs commit in fixed core-index order. Cores never observe each
// other mid-quantum, so the simulation result — per-core stats, metrics
// and traces included — is a pure function of the topology and seed,
// byte-identical regardless of GOMAXPROCS or goroutine scheduling. The
// worker handshake is two channel operations per core per quantum,
// which also gives the race detector the happens-before edges it needs
// to prove the kernel clean.
package machine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/smt"
	"repro/internal/workloads"
)

// CoreSeedStride separates per-core workload seeds: core i builds its
// scenario with seed Machine.Seed + i*CoreSeedStride, so core 0 of a
// 1-core topology reproduces the single-core engine exactly while other
// cores get decorrelated data layouts. The stride is a prime far from
// the experiment sweep's seed stride (7919) so sweep seeds and core
// seeds never collide.
const CoreSeedStride = 100003

// DefaultQuantum is the cycle-quantum length: long enough to amortize
// the barrier handshake (two channel ops per core), short enough that
// the one-quantum contention lag stays well under a DRAM round trip's
// worth of drift per synchronization epoch.
const DefaultQuantum = 4096

// Topology describes a many-core machine: how many cores, the per-core
// template (caches, CPU, switch costs, memory size, seed), optional
// per-core memory-hierarchy overrides, and the shared LLC every core
// contends for.
type Topology struct {
	// Cores is the number of simulated cores, each on its own goroutine.
	Cores int
	// Machine is the per-core template. Core i inherits it wholesale
	// with Seed advanced by i*CoreSeedStride. A zero template (detected
	// by MemBytes == 0) means core.DefaultMachine().
	Machine core.Machine
	// PerCoreMem optionally overrides the private hierarchy per core;
	// len must be 0 (uniform) or Cores.
	PerCoreMem []mem.Config
	// LLC configures the shared banked L3 + DRAM. The zero value means
	// mem.DefaultLLCConfig(Cores). Ignored for single-core topologies,
	// which keep the template's private three-level hierarchy so results
	// match the single-core engine bit-for-bit.
	LLC mem.LLCConfig
	// Quantum is the cycle-quantum length; 0 means DefaultQuantum.
	Quantum uint64
}

// DefaultTopology returns a topology of cores default machines sharing
// a default LLC scaled to the core count.
func DefaultTopology(cores int) Topology {
	return Topology{
		Cores:   cores,
		Machine: core.DefaultMachine(),
		LLC:     mem.DefaultLLCConfig(cores),
		Quantum: DefaultQuantum,
	}
}

// withDefaults fills zero-value fields.
func (t Topology) withDefaults() Topology {
	if t.Machine.MemBytes == 0 {
		t.Machine = core.DefaultMachine()
	}
	if t.Cores > 1 && t.LLC == (mem.LLCConfig{}) {
		t.LLC = mem.DefaultLLCConfig(t.Cores)
	}
	if t.Quantum == 0 {
		t.Quantum = DefaultQuantum
	}
	return t
}

// Validate checks the topology (after default-filling) for structural
// problems.
func (t Topology) Validate() error {
	if t.Cores < 1 {
		return fmt.Errorf("machine: core count %d must be at least 1", t.Cores)
	}
	if n := len(t.PerCoreMem); n != 0 && n != t.Cores {
		return fmt.Errorf("machine: PerCoreMem has %d entries for %d cores (want 0 or %d)", n, t.Cores, t.Cores)
	}
	if t.Machine.MemBytes > 1<<44 {
		// The shared LLC tags per-core lines with a core id above bit 40
		// (lines, i.e. bit 44+ of byte addresses at 16-byte lines or larger).
		return fmt.Errorf("machine: per-core memory %d exceeds the 2^44-byte LLC address budget", t.Machine.MemBytes)
	}
	if err := t.Machine.Mem.Validate(); err != nil {
		return err
	}
	for i := range t.PerCoreMem {
		if err := t.PerCoreMem[i].Validate(); err != nil {
			return fmt.Errorf("machine: core %d: %w", i, err)
		}
	}
	if t.Cores > 1 {
		if err := t.LLC.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CoreMachine derives core i's template: optional per-core hierarchy
// override plus the seed stride. Core 0 is the template itself, so a
// 1-core topology reproduces the single-core engine exactly; layers
// that build their own per-core scenarios over a topology (the service
// dispatcher, external harnesses) must derive machines here rather
// than striding seeds themselves, so every consumer agrees on which
// data layout core i sees.
func (t Topology) CoreMachine(i int) core.Machine {
	m := t.Machine
	if len(t.PerCoreMem) == t.Cores && t.Cores > 0 {
		m.Mem = t.PerCoreMem[i]
	}
	m.Seed += int64(i) * CoreSeedStride
	return m
}

// Mode selects the per-core execution discipline.
type Mode int

const (
	// ModeSymmetric interleaves all workload instances on each core with
	// the symmetric coroutine discipline (exec.RunSymmetric).
	ModeSymmetric Mode = iota
	// ModeSolo runs one instance per core with no software scheduling
	// (exec.RunSolo) — the baseline for scaling measurements.
	ModeSolo
	// ModeSMT multiplexes the instances as hardware threads (smt.Run).
	ModeSMT
)

func (m Mode) String() string {
	switch m {
	case ModeSymmetric:
		return "symmetric"
	case ModeSolo:
		return "solo"
	case ModeSMT:
		return "smt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// RunConfig describes what every core runs. Each core builds its own
// scenario from Spec with its strided seed, so cores execute the same
// program over decorrelated private data.
type RunConfig struct {
	// Spec is the workload every core composes and runs.
	Spec workloads.Spec
	// Part selects the program part; empty means Spec.Name().
	Part string
	// Mode is the per-core execution discipline.
	Mode Mode
	// Tasks caps the instances run per core (0 = all of Spec's
	// instances; ModeSolo always runs exactly one).
	Tasks int
	// Exec configures the executor for ModeSymmetric/ModeSolo. Tracer
	// and Metrics must be nil for multi-core topologies — observability
	// is per-core (see Metrics/TraceN), never shared across goroutines.
	Exec exec.Config
	// SMT configures ModeSMT; a zero Contexts defaults to the task count.
	SMT smt.Config
	// Metrics allocates a private metrics registry per core, snapshot
	// into CoreStats.Metrics after the run.
	Metrics bool
	// TraceN, when positive, attaches a private trace ring of that
	// capacity to each core (ModeSymmetric/ModeSolo).
	TraceN int
}

func (rc RunConfig) validate(cores int) error {
	if rc.Spec == nil {
		return fmt.Errorf("machine: RunConfig.Spec must be set")
	}
	switch rc.Mode {
	case ModeSymmetric, ModeSolo, ModeSMT:
	default:
		return fmt.Errorf("machine: unknown mode %d", int(rc.Mode))
	}
	if rc.Tasks < 0 {
		return fmt.Errorf("machine: negative task count %d", rc.Tasks)
	}
	if cores > 1 && (rc.Exec.Tracer != nil || rc.Exec.Metrics != nil) {
		return fmt.Errorf("machine: Exec.Tracer/Exec.Metrics would be shared across %d core goroutines; use RunConfig.TraceN/Metrics for per-core observability", cores)
	}
	if rc.TraceN < 0 {
		return fmt.Errorf("machine: negative trace capacity %d", rc.TraceN)
	}
	return nil
}
