package repro

// This file is the open-loop service surface: the canonical way to ask
// the paper's datacenter question — what happens to tail latency when
// requests arrive on their own clock and the server cannot push back?
// Session.Serve sweeps a policy × offered-load grid through the
// deterministic runner (parallel, cached, byte-identical at any
// GOMAXPROCS); the closed-loop Harness.Tasks + RunSymmetric/RunDualMode
// surface remains as the low-level building block underneath it.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/service"
)

type (
	// ServiceConfig describes one Serve call: the request/background
	// workload pair, the arrival process, the offered-load sweep, the
	// admission policy (queue bound, shedding) and the policy grid.
	ServiceConfig = service.Config
	// ServiceReport is a served sweep: per-cell stats plus rendered
	// per-policy and cross-policy tail-latency tables.
	ServiceReport = service.Report
	// ServiceCell identifies one (policy, offered rate) grid point.
	ServiceCell = service.Cell
	// ServiceCellStats is one cell's outcome: drop/shed accounting,
	// throughput and the sojourn-time distribution (p50/p99/p999).
	ServiceCellStats = service.CellStats
	// ServicePolicy selects the serving discipline for a cell.
	ServicePolicy = service.Policy
	// Workload pairs the latency-sensitive request program with the
	// batch work that soaks up miss shadows and idle cycles.
	Workload = service.Workload
	// ArrivalSpec describes the open-loop arrival process (kind, rate
	// in requests per simulated µs, burstiness).
	ArrivalSpec = service.ArrivalSpec
	// ArrivalKind selects the arrival process shape.
	ArrivalKind = service.Kind
)

// Serving policies: the three software integration disciplines (§4.2)
// and the two baselines the paper argues against.
const (
	PolicyAgnostic   = service.Agnostic
	PolicySidecar    = service.Sidecar
	PolicyEventAware = service.EventAware
	PolicyOSThread   = service.OSThread
	PolicySMT        = service.SMT
)

// Arrival process kinds.
const (
	ArrivalPoisson = service.Poisson
	ArrivalUniform = service.Uniform
	ArrivalBursty  = service.Bursty
)

// DefaultServiceConfig returns the reference sweep: memory-bound point
// lookups arriving Poisson at three offered loads, served by the three
// software policies plus the OS-thread baseline.
func DefaultServiceConfig() ServiceConfig { return service.DefaultConfig() }

// ParseServicePolicies parses a comma-separated policy list as printed
// by ServicePolicy.String ("agnostic,event-aware,smt").
var ParseServicePolicies = service.ParsePolicies

// ParseArrivalKind parses an arrival-process name ("poisson",
// "uniform", "bursty").
var ParseArrivalKind = service.ParseKind

// serviceCellKey is the cache-key preimage for one serve cell: the
// normalized configuration plus the cell coordinates, with workload
// specs tagged by concrete type (a bare interface value marshals its
// fields but not its identity, so PointerChase{} and BST{} with equal
// field sets must not collide).
type serviceCellKey struct {
	Cell           ServiceCell
	Arrivals       ArrivalSpec
	Requests       int
	Workers        int
	Queue          int
	ShedAfter      uint64
	Batch          int
	MaxSteps       uint64
	Cores          int
	LLC            LLCConfig
	Quantum        uint64
	RequestType    string
	Request        WorkloadSpec
	BackgroundType string       `json:",omitempty"`
	Background     WorkloadSpec `json:",omitempty"`
}

func serviceKey(cfg ServiceConfig, cl ServiceCell) serviceCellKey {
	k := serviceCellKey{
		Cell:        cl,
		Arrivals:    cfg.Arrivals,
		Requests:    cfg.Requests,
		Workers:     cfg.Workers,
		Queue:       cfg.Queue,
		ShedAfter:   cfg.ShedAfter,
		Batch:       cfg.Batch,
		MaxSteps:    cfg.MaxSteps,
		Cores:       cfg.Topology.Cores,
		LLC:         cfg.Topology.LLC,
		Quantum:     cfg.Topology.Quantum,
		RequestType: fmt.Sprintf("%T", cfg.Workload.Request),
		Request:     cfg.Workload.Request,
	}
	if cfg.Workload.Background != nil {
		k.BackgroundType = fmt.Sprintf("%T", cfg.Workload.Background)
		k.Background = cfg.Workload.Background
	}
	return k
}

// Serve runs the open-loop service sweep on the session's machine:
// every (policy, offered rate) cell of cfg's grid is one runner job —
// fanned out over the session's worker pool, served from the result
// cache when enabled — and the report assembles in grid order
// regardless of parallelism. A zero cfg.Topology inherits the
// session's (WithTopology): on a multi-core session each cell
// load-balances the one arrival stream across per-core policy engines
// under the cycle-quantum kernel. Each cell is a pure function of
// (machine, config, cell), so the rendered report is byte-identical
// across GOMAXPROCS settings and repeated runs.
func (s *Session) Serve(ctx context.Context, cfg ServiceConfig) (*ServiceReport, error) {
	if cfg.Topology.Cores == 0 {
		cfg.Topology = s.topo
	}
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	mach := s.topo.Machine
	cells := norm.Cells()
	jobs := make([]runner.Job, len(cells))
	for i, cl := range cells {
		cl := cl
		jobs[i] = runner.Job{
			ID:        cl.ResultID(),
			Mach:      mach,
			Service:   serviceKey(norm, cl),
			Cacheable: true,
			Run: func(m core.Machine) (*ExperimentResult, error) {
				cs, err := service.RunCell(m, norm, cl)
				if err != nil {
					return nil, err
				}
				return cs.Result(), nil
			},
		}
	}
	rs, err := runner.Run(ctx, jobs, runner.Options{Parallelism: s.parallelism, Cache: s.cache})
	if err != nil {
		return nil, err
	}
	rep := &ServiceReport{Cells: make([]ServiceCellStats, len(rs))}
	for i, r := range rs {
		cs, err := service.CellStatsFromResult(r.Res)
		if err != nil {
			return nil, fmt.Errorf("repro: %s: %w", r.Job.ID, err)
		}
		rep.Cells[i] = cs
	}
	return rep, nil
}

// LoadSweep is the one-call form of the paper's tail-latency
// experiment: build a session from opts (seed, parallelism, cache) and
// serve cfg's whole policy × rate grid through it.
//
//	rep, _ := repro.LoadSweep(ctx, repro.DefaultServiceConfig(),
//	    repro.WithParallelism(8), repro.WithCache(""))
//	fmt.Print(rep)
func LoadSweep(ctx context.Context, cfg ServiceConfig, opts ...Option) (*ServiceReport, error) {
	s, err := NewSession(opts...)
	if err != nil {
		return nil, err
	}
	return s.Serve(ctx, cfg)
}
