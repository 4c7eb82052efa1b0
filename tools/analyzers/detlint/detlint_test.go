package detlint

import (
	"strings"
	"testing"

	"go/types"

	"repro/tools/analyzers/internal/analyzertest"
)

func deps() map[string]*types.Package {
	return map[string]*types.Package{
		"time":      analyzertest.Time(),
		"math/rand": analyzertest.Rand(),
	}
}

// reclaimSrc is a reduction of the nondeterminism bug fixed in PR 1:
// mem.Hierarchy.reclaim iterated the in-flight fill map directly, so
// cache lines were installed — and eviction victims chosen — in map
// iteration order, which differs across runs with identical seeds.
const reclaimSrc = `package mem

type fill struct {
	line  uint64
	ready uint64
}

type hierarchy struct {
	fills map[uint64]fill
}

func (h *hierarchy) install(line uint64) {}

// reclaim installs every completed fill. BUG: map iteration order
// decides install order, and install order decides evictions.
func (h *hierarchy) reclaim(now uint64) {
	for line, f := range h.fills {
		if f.ready <= now {
			h.install(line)
			delete(h.fills, line)
		}
	}
}
`

func TestReclaimBugReduction(t *testing.T) {
	diags := analyzertest.Check(t, "repro/internal/mem",
		map[string]string{"reclaim.go": reclaimSrc}, deps(), Analyzer)
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic for the reclaim reduction, got %d: %v",
			len(diags), analyzertest.Messages(diags))
	}
	if !strings.Contains(diags[0].Message, "range over map") {
		t.Fatalf("want range-over-map diagnostic, got %q", diags[0].Message)
	}
}

const violationsSrc = `package exec

import (
	"time"
	"math/rand"
)

func step(pending map[int]bool) int {
	n := 0
	for id := range pending { // violation: map range
		n += id
	}
	start := time.Now()      // violation: wall clock
	_ = time.Since(start)    // violation: wall clock
	return n + rand.Intn(8)  // import itself is the violation
}
`

func TestFlagsEveryViolationClass(t *testing.T) {
	diags := analyzertest.Check(t, "repro/internal/exec",
		map[string]string{"step.go": violationsSrc}, deps(), Analyzer)
	msgs := analyzertest.Messages(diags)
	want := []string{"math/rand", "range over map", "time.Now", "time.Since"}
	if len(diags) != len(want) {
		t.Fatalf("want %d diagnostics, got %d: %v", len(want), len(diags), msgs)
	}
	for _, w := range want {
		found := false
		for _, m := range msgs {
			if strings.Contains(m, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic mentions %q in %v", w, msgs)
		}
	}
}

func TestNonCycleDomainPackagesExempt(t *testing.T) {
	// The same source is fine outside the cycle domain: analysis
	// packages may use maps and clocks freely.
	for _, path := range []string{
		"repro/internal/profile", // under internal/, not a cycle-domain name
		"repro/exec",             // cycle-domain name, not under internal/
	} {
		diags := analyzertest.Check(t, path,
			map[string]string{"step.go": violationsSrc}, deps(), Analyzer)
		if len(diags) != 0 {
			t.Errorf("%s: want no diagnostics outside the cycle domain, got %v",
				path, analyzertest.Messages(diags))
		}
	}
}

func TestTestFilesExempt(t *testing.T) {
	diags := analyzertest.Check(t, "repro/internal/sched", map[string]string{
		"sched.go":      "package sched\n",
		"sched_test.go": strings.Replace(violationsSrc, "package exec", "package sched", 1),
	}, deps(), Analyzer)
	if len(diags) != 0 {
		t.Fatalf("want test files exempt, got %v", analyzertest.Messages(diags))
	}
}

func TestBenignConstructsNotFlagged(t *testing.T) {
	src := `package cpu

import "time"

func ok(xs []int, ch chan int, d time.Duration) int {
	s := 0
	for _, x := range xs { // slice range is fine
		s += x
	}
	for x := range ch { // channel range is fine
		s += x
	}
	_ = d * 2 // using time.Duration arithmetic is fine
	return s
}
`
	diags := analyzertest.Check(t, "repro/internal/cpu",
		map[string]string{"cpu.go": src}, map[string]*types.Package{
			"time": durationTime(),
		}, Analyzer)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", analyzertest.Messages(diags))
	}
}

// durationTime stubs "time" with just a Duration type, enough for the
// benign-constructs fixture.
func durationTime() *types.Package {
	pkg := types.NewPackage("time", "time")
	obj := types.NewTypeName(0, pkg, "Duration", nil)
	types.NewNamed(obj, types.Typ[types.Int64], nil)
	pkg.Scope().Insert(obj)
	pkg.MarkComplete()
	return pkg
}

func TestSMTPackageInCycleDomain(t *testing.T) {
	diags := analyzertest.Check(t, "repro/internal/smt",
		map[string]string{"step.go": strings.Replace(violationsSrc, "package exec", "package smt", 1)},
		deps(), Analyzer)
	if len(diags) != 4 {
		t.Fatalf("want 4 diagnostics in internal/smt, got %d: %v",
			len(diags), analyzertest.Messages(diags))
	}
}

// TestServicePackageInCycleDomain pins the PR-8 extension: the open-loop
// service harness draws arrivals from the scenario's seeded rng and its
// sojourn histograms must replay byte-identically, so internal/service
// carries the full determinism contract.
func TestServicePackageInCycleDomain(t *testing.T) {
	diags := analyzertest.Check(t, "repro/internal/service",
		map[string]string{"step.go": strings.Replace(violationsSrc, "package exec", "package service", 1)},
		deps(), Analyzer)
	if len(diags) != 4 {
		t.Fatalf("want 4 diagnostics in internal/service, got %d: %v",
			len(diags), analyzertest.Messages(diags))
	}
}

func TestInCycleDomain(t *testing.T) {
	cases := map[string]bool{
		"repro/internal/mem":     true,
		"repro/internal/cpu":     true,
		"repro/internal/exec":    true,
		"repro/internal/smt":     true,
		"repro/internal/sched":   true,
		"repro/internal/pebs":    true,
		"repro/internal/service": true,
		"other/internal/mem":     true, // any module's internal cycle domain
		"repro/internal/profile": false,
		"repro/internal/mem/sub": false, // sub isn't a cycle-domain name
		"repro/mem":              false, // not under internal/
		"mem":                    false,
		"repro/internal":         false,
		"repro/tools/analyzers":  false,
	}
	for path, want := range cases {
		if got := inCycleDomain(path); got != want {
			t.Errorf("inCycleDomain(%q) = %v, want %v", path, got, want)
		}
	}
}
