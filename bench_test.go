package repro

// The benchmark harness: one testing.B benchmark per evaluation display
// item (Figure 1 and experiments E1–E20; see DESIGN.md §3). Each bench
// regenerates its table from scratch per iteration and reports the
// experiment's headline numbers as custom metrics, so
//
//	go test -bench . -benchmem
//
// reproduces the entire evaluation. cmd/shbench prints the same tables in
// human-readable form.

import (
	"context"
	"fmt"
	"testing"
)

// runExperiment executes one registered experiment b.N times and reports
// selected metrics.
func runExperiment(b *testing.B, id string, report map[string]string) {
	b.Helper()
	s, err := NewSession()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var res *ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err = s.Run(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
	}
	for metric, unit := range report {
		if v, ok := res.Metrics[metric]; ok {
			b.ReportMetric(v, unit)
		} else {
			b.Fatalf("experiment %s did not produce metric %q", id, metric)
		}
	}
}

// BenchmarkF1Spectrum regenerates Figure 1: CPU efficiency by hiding
// mechanism across event durations of 4 ns to 10 µs.
func BenchmarkF1Spectrum(b *testing.B) {
	runExperiment(b, "F1", map[string]string{
		"d100ns_coro": "eff@100ns/coro",
		"d100ns_smt8": "eff@100ns/smt8",
		"d100ns_none": "eff@100ns/none",
	})
}

// BenchmarkE1SwitchCost regenerates the §2 switch-cost comparison.
func BenchmarkE1SwitchCost(b *testing.B) {
	runExperiment(b, "E1", map[string]string{
		"coro_full_ns": "ns/full-switch",
		"coro_live_ns": "ns/live-switch",
	})
}

// BenchmarkE2StallFraction regenerates the §1 memory-bound stall table.
func BenchmarkE2StallFraction(b *testing.B) {
	runExperiment(b, "E2", map[string]string{
		"chase_stall_frac":    "stallfrac/chase",
		"hashjoin_stall_frac": "stallfrac/join",
	})
}

// BenchmarkE3SMTvsCoro regenerates the SMT-vs-coroutine concurrency sweep.
func BenchmarkE3SMTvsCoro(b *testing.B) {
	runExperiment(b, "E3", map[string]string{
		"smt8":   "eff/smt8",
		"coro32": "eff/coro32",
	})
}

// BenchmarkE4PipelineThroughput regenerates the end-to-end throughput
// table across all workloads.
func BenchmarkE4PipelineThroughput(b *testing.B) {
	runExperiment(b, "E4", map[string]string{
		"chase_pgo_speedup":    "speedup/chase",
		"hashjoin_pgo_speedup": "speedup/join",
		"bst_pgo_speedup":      "speedup/bst",
	})
}

// BenchmarkE5ThresholdSweep regenerates the §3.2 threshold trade-off.
func BenchmarkE5ThresholdSweep(b *testing.B) {
	runExperiment(b, "E5", map[string]string{"best_theta": "theta"})
}

// BenchmarkE6Ablations regenerates the live-mask and coalescing ablations.
func BenchmarkE6Ablations(b *testing.B) {
	runExperiment(b, "E6", map[string]string{
		"ctrue_ltrue_eff":   "eff/both",
		"cfalse_lfalse_eff": "eff/neither",
	})
}

// BenchmarkE7DualMode regenerates the §3.3 asymmetric-concurrency table.
func BenchmarkE7DualMode(b *testing.B) {
	runExperiment(b, "E7", map[string]string{
		"dual_eff":     "eff/dual",
		"dual_latency": "cycles/dual-latency",
		"sym_latency":  "cycles/sym-latency",
	})
}

// BenchmarkE8ScavengerScaling regenerates the scavenger-chaining table.
func BenchmarkE8ScavengerScaling(b *testing.B) {
	runExperiment(b, "E8", map[string]string{
		"chase_chains_per_episode": "chains/episode",
	})
}

// BenchmarkE9IntervalSweep regenerates the inter-yield-interval sweep.
func BenchmarkE9IntervalSweep(b *testing.B) {
	runExperiment(b, "E9", map[string]string{
		"interval_300_overshoot":  "cycles/overshoot@100ns",
		"interval_3000_overshoot": "cycles/overshoot@1µs",
	})
}

// BenchmarkE10SamplingPeriod regenerates the sampling-fidelity sweep.
func BenchmarkE10SamplingPeriod(b *testing.B) {
	runExperiment(b, "E10", map[string]string{
		"scale_1_mae":   "mae/dense",
		"scale_256_mae": "mae/sparse",
	})
}

// BenchmarkE11HWAssist regenerates the §4.1 hardware-assist comparison.
func BenchmarkE11HWAssist(b *testing.B) {
	runExperiment(b, "E11", map[string]string{
		"hw_skips": "skips",
		"hw_eff":   "eff/hw",
	})
}

// BenchmarkE12SFI regenerates the §4.2 SFI co-design table.
func BenchmarkE12SFI(b *testing.B) {
	runExperiment(b, "E12", map[string]string{
		"sfi_overhead":    "overhead/sfi",
		"codesign_folded": "guards-folded",
	})
}

// BenchmarkE13InlineAccuracy regenerates the §3.2 inline-accuracy
// comparison.
func BenchmarkE13InlineAccuracy(b *testing.B) {
	runExperiment(b, "E13", map[string]string{
		"bin_eff": "eff/binary-level",
		"src_eff": "eff/source-level",
	})
}

// BenchmarkE14SchedulerIntegration regenerates the §4.2 scheduler table.
func BenchmarkE14SchedulerIntegration(b *testing.B) {
	runExperiment(b, "E14", map[string]string{
		"sidecar_mean":  "cycles/sidecar-mean",
		"agnostic_mean": "cycles/agnostic-mean",
	})
}

// BenchmarkE15ProfilePortability regenerates the stale-profile table.
func BenchmarkE15ProfilePortability(b *testing.B) {
	runExperiment(b, "E15", map[string]string{
		"fresh_eff": "eff/fresh",
		"stale_eff": "eff/stale",
	})
}

// BenchmarkE16Accelerator regenerates the onboard-accelerator table.
func BenchmarkE16Accelerator(b *testing.B) {
	runExperiment(b, "E16", map[string]string{
		"lat450_speedup": "speedup@150ns",
		"lat450_pgo_eff": "eff@150ns",
	})
}

// BenchmarkE17PrefetcherInteraction regenerates the substrate ablation.
func BenchmarkE17PrefetcherInteraction(b *testing.B) {
	runExperiment(b, "E17", map[string]string{
		"scan_hwtrue_base_eff": "eff/scan-hw",
		"chase_hwtrue_pgo_eff": "eff/chase-pgo",
	})
}

// BenchmarkE18WindowWidth regenerates the concurrency-scaling sweep.
func BenchmarkE18WindowWidth(b *testing.B) {
	runExperiment(b, "E18", map[string]string{
		"w1_eff":  "eff/w1",
		"w16_eff": "eff/w16",
	})
}

// BenchmarkE19SamplingPrecision regenerates the PEBS-precision table.
func BenchmarkE19SamplingPrecision(b *testing.B) {
	runExperiment(b, "E19", map[string]string{
		"precise_eff": "eff/precise",
		"skid_eff":    "eff/skid",
	})
}

// BenchmarkE20SwitchCost regenerates the §4.1 switch-cost sensitivity.
func BenchmarkE20SwitchCost(b *testing.B) {
	runExperiment(b, "E20", map[string]string{
		"cost24_eff": "eff/8ns-switch",
		"cost4_eff":  "eff/1.7ns-switch",
	})
}

// BenchmarkCoreSimulator measures raw simulator throughput (retired
// instructions per second) on the pointer chase, as a harness sanity
// metric.
func BenchmarkCoreSimulator(b *testing.B) {
	h, err := newHarness(b, PointerChase{Nodes: 4096, Hops: 2000, Instances: 1})
	if err != nil {
		b.Fatal(err)
	}
	img := h.Baseline()
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		ts, err := h.Tasks(img, "chase", Primary, 1)
		if err != nil {
			b.Fatal(err)
		}
		st, err := h.NewExecutor(img, ExecConfig{}).RunSolo(ts.Tasks[0])
		if err != nil {
			b.Fatal(err)
		}
		retired = st.Retired
	}
	b.ReportMetric(float64(retired), "instrs/run")
}

// BenchmarkMachineScaling measures aggregate simulator throughput of
// the many-core kernel on the ALU workload at 1/2/4/8 cores, MachineSolo
// per core — the host-parallelism scaling figure (each simulated core
// runs on its own goroutine, so aggregate rate should scale with host
// cores up to the topology size). The steady-state 0-alloc guarantee is
// pinned separately by TestMachineSteadyStateAllocs in internal/machine.
func BenchmarkMachineScaling(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			s, err := NewSession(WithTopology(DefaultTopology(cores)))
			if err != nil {
				b.Fatal(err)
			}
			// Iters is sized so simulated stepping, not the per-iteration
			// scenario build, dominates wall time: the Minstr/s figure
			// measures the kernel.
			rc := MachineRun{
				Spec: UnrolledCompute{BlockInstrs: 64, Iters: 20000, Instances: 1},
				Mode: MachineSolo,
			}
			var retired uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := s.RunMachine(rc)
				if err != nil {
					b.Fatal(err)
				}
				retired = st.Aggregate.Retired
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(retired)*float64(b.N)/sec/1e6, "Minstr/s")
			}
			b.ReportMetric(float64(retired), "instrs/run")
		})
	}
}

// BenchmarkServiceThroughput measures the open-loop service harness
// end to end: one Serve cell (event-aware policy, Poisson arrivals at
// 4 req/µs) serving point-lookup requests over a batch tier. The
// req/s figure is host throughput of the serving loop — arrivals,
// admission, dispatch, sojourn recording — and p99_us is the simulated
// tail, reported so a scheduling regression shows up in the bench log
// even when raw throughput is unchanged.
func BenchmarkServiceThroughput(b *testing.B) {
	cfg := ServiceConfig{
		Workload: Workload{
			Request:    PointerChase{Nodes: 512, Hops: 4, Instances: 4},
			Background: Compute{Iters: 3000, Instances: 2},
		},
		Arrivals: ArrivalSpec{Kind: ArrivalPoisson, Rate: 4},
		Requests: 5000,
		Workers:  4,
		Queue:    64,
		Batch:    2,
		Policies: []ServicePolicy{PolicyEventAware},
	}
	s, err := NewSession()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var rep *ServiceReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = s.Serve(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cell := rep.Cell(PolicyEventAware, 4)
	if cell == nil || cell.Completed != cell.Requests {
		b.Fatalf("event-aware cell incomplete: %+v", cell)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cell.Completed)*float64(b.N)/sec, "req/s")
	}
	b.ReportMetric(cell.P99Micros(), "p99_us")
}

// BenchmarkServeMulticore measures the multi-core dispatcher end to
// end: one event-aware cell at 8 req/µs — past single-core saturation —
// spread over 1/2/4/8 per-core engines by the quantum dispatcher. The
// req/s figure is wall-clock serving throughput (completed requests per
// host second): per-core engines run on their own goroutines, so on a
// host with that much parallelism the figure should scale with the
// topology until the arrival stream is drained dry (≥3× at 4 cores);
// on fewer host CPUs the extra simulated cores still complete more
// requests per run but serially. completed/run and p99_us expose both
// effects in the bench log.
func BenchmarkServeMulticore(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			cfg := ServiceConfig{
				Workload: Workload{
					Request:    PointerChase{Nodes: 1024, Hops: 8, Instances: 4},
					Background: Compute{Iters: 1500, Instances: 2},
				},
				Arrivals: ArrivalSpec{Kind: ArrivalPoisson, Rate: 8},
				Rates:    []float64{8},
				Requests: 4000,
				Workers:  4,
				Queue:    64,
				Batch:    2,
				Policies: []ServicePolicy{PolicyEventAware},
				Topology: Topology{Cores: cores},
			}
			s, err := NewSession()
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var rep *ServiceReport
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err = s.Serve(ctx, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cell := rep.Cell(PolicyEventAware, 8)
			if cell == nil || cell.Completed+cell.Dropped+cell.Shed != cell.Requests {
				b.Fatalf("event-aware cell lost requests: %+v", cell)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(cell.Completed)*float64(b.N)/sec, "req/s")
			}
			b.ReportMetric(float64(cell.Completed), "completed/run")
			b.ReportMetric(cell.P99Micros(), "p99_us")
		})
	}
}

// BenchmarkCoreSimulatorALU measures simulator throughput on an
// ALU-dominated workload, the shape the block fast-path engine
// accelerates: long straight-line compute bodies with loop control, the
// kind of code that dominates retired instructions between yields. The
// pointer chase above is memory-bound (hierarchy modeling dominates);
// this one is dispatch-bound, so its step rate tracks the execution
// engine itself.
func BenchmarkCoreSimulatorALU(b *testing.B) {
	h, err := newHarness(b, UnrolledCompute{BlockInstrs: 64, Iters: 2000, Instances: 1})
	if err != nil {
		b.Fatal(err)
	}
	img := h.Baseline()
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		ts, err := h.Tasks(img, "unrolled", Primary, 1)
		if err != nil {
			b.Fatal(err)
		}
		st, err := h.NewExecutor(img, ExecConfig{}).RunSolo(ts.Tasks[0])
		if err != nil {
			b.Fatal(err)
		}
		retired = st.Retired
	}
	b.ReportMetric(float64(retired), "instrs/run")
}
