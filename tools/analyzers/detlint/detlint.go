// Package detlint enforces the repository's determinism contract in
// cycle-domain packages (internal/{mem,cpu,exec,smt,sched,pebs,machine,service}):
// every simulated run with the same seed must be bit-identical, so those
// packages must not iterate maps in an order-sensitive way, read wall
// clocks, or draw from the global (process-seeded) random source.
//
// The rule set is deliberately blunt — each construct it flags has
// caused (or would cause) a real nondeterminism bug:
//
//   - range over a map: map iteration order is randomized per run. The
//     PR-1 reclaim bug was exactly this — cache fills were installed in
//     map-iteration order, so eviction decisions differed across runs
//     with identical seeds. Iterate a sorted slice instead (see
//     internal/mem/fills.go).
//   - time.Now / time.Since / time.Until: wall-clock reads leak host
//     timing into the cycle domain. Simulated time is the only clock.
//   - importing math/rand or math/rand/v2: the global source is seeded
//     per process. Randomness must come from the scenario's explicitly
//     seeded generator, threaded in by the caller.
//   - address-dependent values: a %p fmt verb, reflect.Value.MapKeys,
//     or sorting a slice of pointers (the classic "harvest map keys,
//     sort them" pattern with pointer keys orders by allocation
//     address — stable within a run, different across runs).
//
// Test files are exempt: tests may time themselves and build throwaway
// maps without affecting simulation results.
//
// Diagnostics are rule-attributed: randimport, maprange, wallclock,
// addrformat, mapkeys, ptrsort.
package detlint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/tools/analyzers/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "detlint",
	Doc: "forbid nondeterminism sources (map iteration, wall clocks, global rand, address-dependent values) in cycle-domain packages\n\n" +
		"Applies to packages under internal/ whose name is one of mem, cpu, exec, smt, sched, pebs, machine, service.",
	Run: run,
}

// cycleDomain lists the package base names under internal/ whose
// computations feed simulated state. Keep in sync with ARCHITECTURE.md
// §9 and the determinism test matrix.
var cycleDomain = map[string]bool{
	"mem":     true,
	"cpu":     true,
	"exec":    true,
	"smt":     true,
	"sched":   true,
	"pebs":    true,
	"machine": true,
	"service": true, // open-loop arrivals + admission queue feed sojourn histograms
}

func inCycleDomain(importPath string) bool {
	base := importPath[strings.LastIndexByte(importPath, '/')+1:]
	return strings.Contains(importPath+"/", "/internal/") && cycleDomain[base]
}

func run(pass *framework.Pass) error {
	if !inCycleDomain(pass.ImportPath) {
		return nil
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		checkFile(pass, file)
	}
	return nil
}

func checkFile(pass *framework.Pass, file *ast.File) {
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "math/rand" || path == "math/rand/v2" {
			pass.ReportRule(imp.Pos(), "randimport",
				"import of %s in cycle-domain package: the global source is process-seeded; thread the scenario's seeded rng instead", path)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); ok {
				pass.ReportRule(n.Pos(), "maprange",
					"range over map in cycle-domain package: iteration order is randomized per run; iterate a sorted slice instead")
			}
		case *ast.SelectorExpr:
			if obj := timeFunc(pass.TypesInfo, n); obj != "" {
				pass.ReportRule(n.Pos(), "wallclock",
					"call of time.%s in cycle-domain package: wall-clock reads are nondeterministic; use simulated cycles", obj)
			}
		case *ast.CallExpr:
			checkCall(pass, n)
		}
		return true
	})
}

// checkCall applies the address-dependence rules to one call: %p format
// verbs, reflect.Value.MapKeys, and pointer-keyed sorts.
func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if sel == nil {
		return
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "fmt":
		for _, arg := range call.Args {
			tv, ok := info.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				continue
			}
			// %%p is a literal "%p", not a verb.
			if strings.Contains(strings.ReplaceAll(constant.StringVal(tv.Value), "%%", ""), "%p") {
				pass.ReportRule(arg.Pos(), "addrformat",
					"%%p verb in cycle-domain package: formatted addresses differ across runs with identical seeds")
				return
			}
		}
	case "reflect":
		if fn.Name() == "MapKeys" && fn.Type().(*types.Signature).Recv() != nil {
			pass.ReportRule(call.Pos(), "mapkeys",
				"reflect.Value.MapKeys in cycle-domain package: key order is map iteration order, randomized per run")
		}
	case "sort":
		if fn.Name() != "Slice" && fn.Name() != "SliceStable" {
			return
		}
		if len(call.Args) == 0 {
			return
		}
		t := info.TypeOf(call.Args[0])
		if t == nil {
			return
		}
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return
		}
		if _, ok := sl.Elem().Underlying().(*types.Pointer); ok {
			pass.ReportRule(call.Pos(), "ptrsort",
				"sort.%s over a slice of pointers in cycle-domain package: comparing harvested pointer keys orders by allocation address; sort by a stable field instead", fn.Name())
		}
	}
}

// timeFunc reports the name of the forbidden time-package function a
// selector refers to, or "" if it is something else.
func timeFunc(info *types.Info, sel *ast.SelectorExpr) string {
	switch sel.Sel.Name {
	case "Now", "Since", "Until":
	default:
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "time" {
		return ""
	}
	return sel.Sel.Name
}
