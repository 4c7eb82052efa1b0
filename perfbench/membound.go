package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/cpu"
	"repro/internal/mem"
)

// memboundSpecs is one harness of dependent-read chains beside random
// store tables: 8 MiB of working set against the 256 KiB L3, so reads
// miss to DRAM and the stores leave dirty lines to write back.
var memboundSpecs = []repro.WorkloadSpec{
	repro.PointerChase{Nodes: 16384, Hops: 60000, Instances: 4},
	repro.Scatter{Slots: 16384, Updates: 60000, Instances: 4},
}

func memboundIterate(seed int64, chk *tally) (iteration, error) {
	it, _, err := memboundFlow(seed, memboundSpecs, &tracer{}, chk)
	return it, err
}

func memboundProbe(seed int64, tr *tracer, chk *tally) (map[string]float64, error) {
	_, layers, err := memboundFlow(seed, memboundSpecs, tr, chk)
	return layers, err
}

// memboundFlow composes the harness, profiles both parts, instruments
// and verifies the image (the set-up), then runs every instance under
// one symmetric executor (the measured call) and checks the results
// against their host references. With tr on it also returns the
// per-layer metrics.
func memboundFlow(seed int64, specs []repro.WorkloadSpec, tr *tracer, chk *tally) (iteration, map[string]float64, error) {
	s, err := repro.NewSession(repro.WithSeed(seed))
	if err != nil {
		return iteration{}, nil, err
	}
	t0 := time.Now()
	var h *repro.Harness
	composeS := tr.timed("workloads.NewHarness", func() { h, err = s.NewHarness(specs...) })
	if err != nil {
		return iteration{}, nil, err
	}
	var prof *repro.Profile
	var smp *repro.Sampler
	var profRetired uint64
	profileS := tr.timed("pebs.ProfileParts", func() {
		var core *cpu.Core
		prof, smp, core, err = h.ProfileParts(h.Mach.Sampling, "chase", "scatter")
		if core != nil {
			profRetired = core.Counters.TotalRetired
		}
	})
	// ProfileParts checks every instance against its host reference.
	chk.check(err)
	if err != nil {
		return iteration{}, nil, err
	}
	var img *repro.Image
	rewriteS := tr.timed("instrument.Instrument", func() { img, err = h.Instrument(prof, repro.DefaultPipelineOptions()) })
	if err != nil {
		return iteration{}, nil, err
	}
	verifyS := tr.timed("check.VerifyImage", func() { _, err = s.VerifyImage(h, img) })
	chk.check(err)
	setup := time.Since(t0).Seconds()

	runtime.GC() // the measured call never pays for set-up garbage
	t1 := time.Now()
	ex := s.NewExecutor(h, img, repro.ExecConfig{})
	ts, err := h.Tasks(img, "chase", repro.Primary, 0)
	if err != nil {
		return iteration{}, nil, err
	}
	stores, err := h.Tasks(img, "scatter", repro.Primary, 0)
	if err != nil {
		return iteration{}, nil, err
	}
	ts.Merge(stores)
	var st repro.ExecStats
	runS := tr.timed("exec.RunSymmetric", func() { st, err = ex.RunSymmetric(ts.Tasks) })
	wall := time.Since(t1).Seconds()
	if err != nil {
		return iteration{}, nil, err
	}
	chk.check(ts.Validate())
	if st.Halted != len(ts.Tasks) {
		chk.check(fmt.Errorf("membound: %d of %d tasks halted", st.Halted, len(ts.Tasks)))
	}

	it := iteration{setupS: setup, wallS: wall, metrics: map[string]float64{
		"sim_minstr_per_s": float64(st.Retired) / wall / 1e6,
		"sim_cycles":       float64(st.Cycles),
	}}
	if !tr.on {
		return it, nil, nil
	}
	ms := ex.Core.Hier.Stats
	accesses := float64(ms.Total())
	cycles := float64(st.Cycles)
	yields := img.Pipe.Primary.Yields
	if img.Pipe.Scavenger != nil {
		yields += len(img.Pipe.Scavenger.CondYieldPCs)
	}
	layers := map[string]float64{
		"workloads.compose_s":      composeS,
		"pebs.profile_s":           profileS,
		"pebs.host_ns_per_instr":   profileS * 1e9 / float64(profRetired),
		"pebs.drop_frac":           float64(smp.Dropped) / float64(uint64(len(smp.Samples))+smp.Dropped),
		"instrument.rewrite_s":     rewriteS,
		"instrument.yields":        float64(yields),
		"check.verify_s":           verifyS,
		"exec.run_s":               runS,
		"exec.host_ns_per_instr":   runS * 1e9 / float64(st.Retired),
		"exec.switches":            float64(st.Switches),
		"exec.busy_frac":           float64(st.Busy) / cycles,
		"exec.stall_frac":          float64(st.Stall) / cycles,
		"exec.switch_frac":         float64(st.Switch) / cycles,
		"mem.host_ns_per_access":   runS * 1e9 / accesses,
		"mem.accesses":             accesses,
		"mem.l1_hit_frac":          float64(ms.Accesses[mem.LevelL1]) / accesses,
		"mem.dram_frac":            float64(ms.Accesses[mem.LevelDRAM]) / accesses,
		"mem.writebacks":           float64(ms.Writebacks),
		"mem.mshr_peak":            float64(ms.MSHRPeak),
		"mem.prefetch_hidden_frac": float64(ms.InflightFull) / float64(ms.Prefetches),
	}
	return it, layers, nil
}
