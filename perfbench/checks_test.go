package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro"
)

// copyGoldens copies the golden files under a fresh root, applying
// corrupt to the bytes of the file at index which.
func copyGoldens(t *testing.T, which int, corrupt func([]byte)) string {
	t.Helper()
	root := t.TempDir()
	for i, name := range goldenFiles {
		b, err := os.ReadFile(filepath.Join("..", name))
		if err != nil {
			t.Fatal(err)
		}
		if i == which {
			corrupt(b)
		}
		dst := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestCorruptGoldenRaisesFailedFrac flips one expected byte at a time —
// in a file header, in the checked experiment's block, in the E21 file —
// and requires each to show up as a failed check.
func TestCorruptGoldenRaisesFailedFrac(t *testing.T) {
	s, err := repro.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), "E1")
	if err != nil {
		t.Fatal(err)
	}
	results := []*repro.ExperimentResult{res}

	var clean tally
	checkSuite(copyGoldens(t, -1, nil), defaultSeed, results, &clean)
	if clean.failed != 0 || clean.attempted == 0 {
		t.Fatalf("unmodified goldens: %d of %d checks failed, want 0 of >0", clean.failed, clean.attempted)
	}

	flip := func(at func(b []byte) int) func([]byte) {
		return func(b []byte) { b[at(b)] ^= 1 }
	}
	cases := []struct {
		name  string
		which int
		at    func(b []byte) int
	}{
		{"header", 0, func(b []byte) int { return strings.Index(string(b), "seed") + len("seed ") }},
		{"E1 block", 0, func(b []byte) int {
			i := strings.Index(string(b), "### E1 ")
			j := strings.Index(string(b), "### E2 ")
			return (i + j) / 2
		}},
		{"E21 header", 1, func(b []byte) int { return 0 }},
	}
	for _, c := range cases {
		var got tally
		checkSuite(copyGoldens(t, c.which, flip(c.at)), defaultSeed, results, &got)
		if got.frac() <= clean.frac() {
			t.Errorf("%s corrupted: failed_frac %g, want above %g", c.name, got.frac(), clean.frac())
		}
	}
}

// TestSplitGoldenCoversEveryByte requires the header and blocks to
// partition each golden file, so every byte is compared.
func TestSplitGoldenCoversEveryByte(t *testing.T) {
	for _, name := range goldenFiles {
		b, err := os.ReadFile(filepath.Join("..", name))
		if err != nil {
			t.Fatal(err)
		}
		header, blocks := splitGolden(string(b))
		n := len(header)
		for id, blk := range blocks {
			if !strings.HasPrefix(blk, "### "+id+" ") {
				t.Errorf("%s: block %s starts %q", name, id, blk[:min(len(blk), 20)])
			}
			n += len(blk)
		}
		if n != len(b) || len(blocks) == 0 {
			t.Errorf("%s: header and %d blocks cover %d of %d bytes", name, len(blocks), n, len(b))
		}
	}
}

// TestSimulatedNumbersIgnoreGOMAXPROCS runs reduced membound and serve
// workloads at GOMAXPROCS 1 and 2 and requires every simulated number
// to repeat exactly.
func TestSimulatedNumbersIgnoreGOMAXPROCS(t *testing.T) {
	specs := []repro.WorkloadSpec{
		repro.PointerChase{Nodes: 4096, Hops: 3000, Instances: 4},
		repro.Scatter{Slots: 4096, Updates: 3000, Instances: 4},
	}
	simulated := func() map[string]float64 {
		var chk tally
		it, layers, err := memboundFlow(defaultSeed, specs, newTracer(), &chk)
		if err != nil {
			t.Fatal(err)
		}
		serve, err := serveMeasured(defaultSeed, 2000, &chk)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := serveCellsProbe(defaultSeed, 2000, newTracer(), &chk)
		if err != nil {
			t.Fatal(err)
		}
		if chk.failed != 0 {
			t.Fatalf("%d of %d checks failed", chk.failed, chk.attempted)
		}
		out := map[string]float64{"sim_cycles": it.metrics["sim_cycles"]}
		for _, m := range []map[string]float64{serve.metrics, layers, cells} {
			for k, v := range m {
				if isSimulated(k) {
					out[k] = v
				}
			}
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	one := simulated()
	runtime.GOMAXPROCS(2)
	two := simulated()
	if len(one) < 15 {
		t.Fatalf("only %d simulated numbers compared: %v", len(one), one)
	}
	for k, v := range one {
		if two[k] != v {
			t.Errorf("%s: %v at GOMAXPROCS 1, %v at 2", k, v, two[k])
		}
	}
}

// isSimulated reports whether a metric is a simulated number rather than
// a host measurement (*_s, *_per_s, *_mib, host_*), going by its name
// with any ".<cell>" suffix dropped.
func isSimulated(name string) bool {
	base := name
	if i := strings.LastIndex(name, "."); i > 0 && strings.Contains(name[:i], "_") {
		base = name[:i]
	}
	return !(strings.HasSuffix(base, "_s") || strings.HasSuffix(base, "_mib") || strings.Contains(base, "host_"))
}

// TestBenchmarkJSONMatchesMetrics requires BENCHMARK.json to name exactly
// the workloads and metrics the command reports, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the command runs %v", names, want)
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", what, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}
