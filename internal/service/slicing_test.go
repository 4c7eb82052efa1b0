package service

import (
	"testing"

	"repro/internal/core"
)

// A single-core SMT cell served in deadline slices must report
// byte-identical CellStats to the same cell run whole. SMT drives
// RunBlock in block mode, where the clock advances by exactly the busy
// cycles retired and stalls are handed back to the engine, so a
// deadline stop is a pure fuel split and the arrival clip lands on the
// same instruction boundary either way.
//
// The coroutine policies make no such promise: non-block RunBlock
// absorbs a stall into the clock, so a quantum stop that falls inside
// a scavenger's absorbed stall admits an arrival one yield earlier
// than the unsliced run would (see ARCHITECTURE.md §11). Multi-core
// cells admit only at barriers and are deterministic regardless.
func TestCellSlicingEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 12 cells; skipped under -short")
	}
	mach := core.DefaultMachine()
	for _, rate := range []float64{0.5, 2, 8} {
		cl := Cell{Policy: SMT, Rate: rate}
		want, err := RunCell(mach, testConfig(), cl)
		if err != nil {
			t.Fatal(err)
		}
		for _, quantum := range []uint64{7, 97, 1000} {
			cfg := testConfig().withDefaults()
			c, err := newCell(mach, cfg, cl, true)
			if err != nil {
				t.Fatal(err)
			}
			start := c.ex.Core.Now
			deadline := start
			slices := 0
			for c.Pending() {
				deadline += quantum
				if err := c.run(deadline); err != nil {
					t.Fatalf("rate %g quantum %d: %v", rate, quantum, err)
				}
				slices++
			}
			if slices < 2 {
				t.Fatalf("rate %g quantum %d: slicing untested, one slice sufficed", rate, quantum)
			}
			got := c.stats(c.ex.Core.Now - start)
			if got.Hist.String() != want.Hist.String() {
				t.Errorf("rate %g quantum %d: sojourn histograms diverged", rate, quantum)
			}
			g, w := got, want
			g.Hist, w.Hist = nil, nil
			if g != w {
				t.Errorf("rate %g quantum %d: sliced cell diverged\n got %+v\nwant %+v", rate, quantum, g, w)
			}
		}
	}
}
