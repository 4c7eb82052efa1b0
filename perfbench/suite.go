package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/experiments"
)

// The committed renderings of every experiment at the default seed,
// relative to the repository root. They are read, never written.
var goldenFiles = []string{
	"internal/experiments/testdata/golden_tables.txt",
	"internal/service/testdata/e21_golden.txt",
}

// suiteIterate regenerates every registered experiment with Session.RunAll
// at runner parallelism GOMAXPROCS and no result cache.
func suiteIterate(seed int64, chk *tally) (iteration, error) {
	s, setup, err := newSessionTimed(repro.WithSeed(seed), repro.WithParallelism(runtime.GOMAXPROCS(0)))
	if err != nil {
		return iteration{}, err
	}
	runtime.GC() // the measured call never pays for set-up garbage
	t0 := time.Now()
	results, err := s.RunAll(context.Background())
	wall := time.Since(t0).Seconds()
	if err != nil {
		for range s.ExperimentIDs() {
			chk.check(err)
		}
	} else {
		checkSuite(".", seed, results, chk)
	}
	return iteration{setupS: setup, wallS: wall}, nil
}

// suiteProbe calls each experiment runner one at a time, timing it and
// counting the bytes it allocates.
func suiteProbe(seed int64, tr *tracer, chk *tally) (map[string]float64, error) {
	s, err := repro.NewSession(repro.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	mach := s.Topology().Machine
	out := map[string]float64{}
	var results []*repro.ExperimentResult
	for _, id := range s.ExperimentIDs() {
		run, err := experiments.MustLookup(id)
		if err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		tr.memStats(&before)
		var res *repro.ExperimentResult
		d := tr.timed("experiments."+id, func() { res, err = run(mach) })
		tr.memStats(&after)
		if tr.on {
			out["experiments."+id+"_s"] = d
			out["experiments."+id+"_alloc_mib"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		}
		if err != nil {
			chk.check(fmt.Errorf("%s: %w", id, err))
			continue
		}
		results = append(results, res)
	}
	checkSuite(".", seed, results, chk)
	if !tr.on {
		return nil, nil
	}
	return out, nil
}

// checkSuite records one check per result. At the default seed a result
// must render byte-equal to its block of the golden files under root,
// and each file's header is checked too; at any other seed the
// experiments' own host-reference checks, which passed when the result
// was produced, are the check.
func checkSuite(root string, seed int64, results []*repro.ExperimentResult, chk *tally) {
	if seed != defaultSeed {
		for range results {
			chk.check(nil)
		}
		return
	}
	want := map[string]string{}
	for i, name := range goldenFiles {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			chk.check(err)
			continue
		}
		header, blocks := splitGolden(string(b))
		chk.check(expectEqual(name+" header", header, goldenHeader(i, seed)))
		for id, blk := range blocks {
			want[id] = blk
		}
	}
	for _, r := range results {
		blk, ok := want[r.ID]
		if !ok {
			chk.check(fmt.Errorf("%s: no golden rendering", r.ID))
			continue
		}
		chk.check(expectEqual(r.ID, blk, r.String()+r.MetricsString()+"\n"))
	}
}

// goldenHeader is the first line (and blank line) of golden file i, as
// the experiments' and service's golden tests write it.
func goldenHeader(i int, seed int64) string {
	if i == 0 {
		return fmt.Sprintf("golden evaluation tables — seed %d\n\n", seed)
	}
	return fmt.Sprintf("golden E21 tables — seed %d\n\n", seed)
}

// splitGolden partitions a golden file into its header and one block
// per experiment, keyed by ID; each block starts at a "### <ID> " line.
func splitGolden(text string) (header string, blocks map[string]string) {
	blocks = map[string]string{}
	starts := []int{}
	for i := 0; i < len(text); {
		if strings.HasPrefix(text[i:], "### ") {
			starts = append(starts, i)
		}
		nl := strings.IndexByte(text[i:], '\n')
		if nl < 0 {
			break
		}
		i += nl + 1
	}
	if len(starts) == 0 {
		return text, blocks
	}
	header = text[:starts[0]]
	for k, st := range starts {
		end := len(text)
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		blk := text[st:end]
		id, _, _ := strings.Cut(blk[len("### "):], " ")
		blocks[id] = blk
	}
	return header, blocks
}

// expectEqual reports the first line where got departs from want.
func expectEqual(what, want, got string) error {
	if want == got {
		return nil
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Errorf("%s differs from the golden rendering at line %d: got %q, want %q", what, i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("%s differs from the golden rendering: got %d lines, want %d", what, len(gl), len(wl))
}
