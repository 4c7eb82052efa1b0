package machine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// metricsGoldenPath pins the per-core metrics snapshots of a 2-core run
// in every mode, so a change to where the engines record request
// latencies (or how often) cannot move a counter unnoticed.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/machine -run TestMetricsGolden
const metricsGoldenPath = "testdata/metrics_golden.txt"

func TestMetricsGolden(t *testing.T) {
	var b strings.Builder
	for _, mode := range []Mode{ModeSolo, ModeSymmetric, ModeSMT} {
		m, err := New(testTopo(2), RunConfig{Spec: chaseSpec(), Mode: mode, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		for _, cs := range st.Cores {
			fmt.Fprintf(&b, "== mode %v core %d ==\n%s\n", mode, cs.Core, cs.Metrics.Table())
		}
	}
	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(metricsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", metricsGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("metrics snapshots diverge from golden fixture:\n got:\n%s\nwant:\n%s", got, want)
	}
}
