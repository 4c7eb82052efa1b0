package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/service"
)

// serveRequests is the number of requests offered per cell: enough that
// hundreds of sojourns lie beyond the p99.
const serveRequests = 25000

// serveCell is one (cores, offered rate) point of the serve grid. Rate 2
// req/µs is below saturation, 8 is past it.
type serveCell struct {
	name  string
	cores int
	rate  float64
}

var serveCells = []serveCell{
	{"1c_r2", 1, 2}, {"1c_r8", 1, 8},
	{"2c_r2", 2, 2}, {"2c_r8", 2, 8},
}

// serveConfig serves one cell: the event-aware policy over Poisson
// arrivals at the cell's rate on a machine of the cell's core count.
func serveConfig(c serveCell, requests int) repro.ServiceConfig {
	return repro.ServiceConfig{
		Arrivals: repro.ArrivalSpec{Kind: repro.ArrivalPoisson, Rate: c.rate},
		Requests: requests,
		Policies: []repro.ServicePolicy{repro.PolicyEventAware},
		Topology: repro.Topology{Cores: c.cores},
	}
}

func serveIterate(seed int64, chk *tally) (iteration, error) {
	return serveMeasured(seed, serveRequests, chk)
}

// serveMeasured serves each cell with its own Session.Serve call at
// session parallelism 1 and checks that every cell conserves its
// requests; Serve itself fails if any request's result departs from its
// host reference. The heap is collected before each call, untimed, so
// no cell pays for the previous one's garbage.
func serveMeasured(seed int64, requests int, chk *tally) (iteration, error) {
	s, setup, err := newSessionTimed(repro.WithSeed(seed))
	if err != nil {
		return iteration{}, err
	}
	var wall float64
	var cells []repro.ServiceCellStats
	for _, c := range serveCells {
		runtime.GC()
		t0 := time.Now()
		rep, err := s.Serve(context.Background(), serveConfig(c, requests))
		wall += time.Since(t0).Seconds()
		chk.check(err)
		if err != nil {
			return iteration{}, err
		}
		cells = append(cells, rep.Cells...)
	}

	var completed, refused, offered8 uint64
	p99 := map[int]float64{}
	for _, cs := range cells {
		chk.check(conserves(cs))
		completed += cs.Completed
		switch cs.Rate {
		case 2:
			p99[cs.Cores] = cs.P99Micros()
		case 8:
			refused += cs.Dropped + cs.Shed
			offered8 += cs.Requests
		}
	}
	return iteration{setupS: setup, wallS: wall, metrics: map[string]float64{
		"serve_req_per_s":  float64(completed) / wall,
		"sim_p99_us.1c":    p99[1],
		"sim_p99_us.2c":    p99[2],
		"sim_refused_frac": float64(refused) / float64(offered8),
	}}, nil
}

// serveProbe composes the serve specs once, then runs each cell through
// service.RunCell on its own.
func serveProbe(seed int64, tr *tracer, chk *tally) (map[string]float64, error) {
	return serveCellsProbe(seed, serveRequests, tr, chk)
}

func serveCellsProbe(seed int64, requests int, tr *tracer, chk *tally) (map[string]float64, error) {
	s, err := repro.NewSession(repro.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	mach := s.Topology().Machine
	out := map[string]float64{}
	var switches, episodes, chains uint64
	for i, sc := range serveCells {
		cfg, err := serveConfig(sc, requests).Normalized()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			d := tr.timed("workloads.NewHarness.serve", func() {
				_, err = s.NewHarness(cfg.Workload.Request, cfg.Workload.Background)
			})
			if err != nil {
				return nil, err
			}
			out["workloads.compose_s.serve"] = d
		}
		var cs service.CellStats
		d := tr.timed("service.RunCell."+sc.name, func() {
			cs, err = service.RunCell(mach, cfg, service.Cell{Policy: service.EventAware, Rate: sc.rate})
		})
		chk.check(err)
		if err != nil {
			return nil, err
		}
		chk.check(conserves(cs))
		out["service.cell_s."+sc.name] = d
		out["service.host_us_per_req."+sc.name] = d * 1e6 / float64(cs.Requests)
		if sc.cores > 1 {
			out["service.host_ns_per_quantum."+sc.name] = d * 1e9 / (float64(cs.Cycles) / float64(cfg.Topology.Quantum))
		}
		switches += cs.Switches
		episodes += cs.Episodes
		chains += cs.Chains
	}
	if !tr.on {
		return nil, nil
	}
	out["service.switches"] = float64(switches)
	out["service.episodes"] = float64(episodes)
	out["service.chains"] = float64(chains)
	return out, nil
}

// conserves checks that every offered request was completed, dropped at
// the admission queue, or shed at dispatch.
func conserves(cs repro.ServiceCellStats) error {
	if cs.Completed+cs.Dropped+cs.Shed != cs.Requests {
		return fmt.Errorf("serve %s at %g req/µs on %d cores: completed %d + dropped %d + shed %d != requests %d",
			cs.Policy, cs.Rate, cs.Cores, cs.Completed, cs.Dropped, cs.Shed, cs.Requests)
	}
	return nil
}
