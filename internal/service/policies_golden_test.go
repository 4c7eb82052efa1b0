package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// policiesGoldenPath pins every policy engine byte-for-byte: all five
// policies, served on 1 and 2 cores, below (0.5 req/µs) and far past
// (8 req/µs) saturation. E21 pins only Agnostic and EventAware; this
// grid also covers Sidecar, OSThread and SMT cells, so any change to a
// scheduling loop that moves a single cycle shows up here.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/service -run TestPoliciesGolden
const policiesGoldenPath = "testdata/policies_golden.txt"

func TestPoliciesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 20 cells; skipped under -short")
	}
	mach := core.DefaultMachine()
	var b strings.Builder
	fmt.Fprintf(&b, "policy cores rate completed dropped shed batch_ops episodes chains switches cycles p50 p99 p999 mean_sojourn\n")
	for _, pol := range []Policy{Agnostic, Sidecar, EventAware, OSThread, SMT} {
		for _, cores := range []int{1, 2} {
			for _, rate := range []float64{0.5, 8} {
				cfg := testConfig()
				cfg.Topology = machine.Topology{Cores: cores}
				cs, err := RunCell(mach, cfg, Cell{Policy: pol, Rate: rate})
				if err != nil {
					t.Fatalf("%s cores=%d rate=%g: %v", pol, cores, rate, err)
				}
				conservation(t, cs, uint64(cfg.Requests))
				fmt.Fprintf(&b, "%s %d %g %d %d %d %d %d %d %d %d %d %d %d %g\n",
					pol, cores, rate, cs.Completed, cs.Dropped, cs.Shed, cs.BatchOps,
					cs.Episodes, cs.Chains, cs.Switches, cs.Cycles,
					cs.P50, cs.P99, cs.P999, cs.MeanSojourn)
			}
		}
	}
	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(policiesGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(policiesGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", policiesGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(policiesGoldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Fatalf("policy grid diverges from golden fixture:\n got:\n%s\nwant:\n%s", got, want)
	}
}
