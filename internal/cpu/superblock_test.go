package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// driveSuper retires through the superblock tier, chopping fuel into
// rng-sized pieces so calls stop at arbitrary points inside and between
// trace activations. Traces down to two instructions are installed —
// shorter than production's sbMinLen — to widen differential coverage of
// entry and exit boundaries.
func (r *engineRig) driveSuper(block bool, budget uint64, maxSteps int, rng *rand.Rand) {
	if err := r.core.installSuperblocks(deriveSuperblocks(r.core.instrs, 2)); err != nil {
		r.err = err
		return
	}
	var res BlockResult
	var used int
	for used < maxSteps && !r.ctx.Halted {
		fuel := uint64(1 + rng.Intn(40))
		if rem := uint64(maxSteps - used); fuel > rem {
			fuel = rem
		}
		if err := r.core.RunBlock(r.ctx, block, fuel, budget, &res); err != nil {
			r.err = err
			return
		}
		used += int(res.Steps)
		if block && res.Stall > 0 {
			r.ctx.StallCycles += res.Stall
			r.core.AdvanceIdle(res.Stall)
		}
	}
}

// diffSuperProgram runs prog through the per-instruction reference and
// the superblock tier from identical initial state and asserts
// byte-identical observables — the same contract block_test.go pins for
// the block engine, extended one tier up.
func diffSuperProgram(t *testing.T, label string, prog *isa.Program, rng *rand.Rand, block bool, budget uint64) {
	t.Helper()
	var initRegs [isa.NumRegs]uint64
	for r := 0; r < 12; r++ {
		initRegs[r] = uint64(rng.Intn(1 << 20))
	}
	arena := make([]uint64, 512)
	for i := range arena {
		arena[i] = uint64(rng.Intn(1 << 24))
	}
	a := newEngineRig(prog, initRegs, arena)
	b := newEngineRig(prog, initRegs, arena)
	const maxSteps = 1 << 20
	a.driveStep(block, maxSteps)
	b.driveSuper(block, budget, maxSteps, rng)
	assertRigsEqual(t, label, a, b)
}

// randLoopProgram wraps a random straight-line body in a counted loop:
// the body (forward branches only, memory confined to the r13 arena)
// falls through into a loop latch on r12, which the generator's body
// never touches. The backward latch makes the whole program a loop-
// superblock candidate, and re-running the body exercises residency
// memos across iterations.
func randLoopProgram(rng *rand.Rand, n int, iters int64, arenaSize int64) *isa.Program {
	p := randRunnableProgram(rng, n, arenaSize)
	p.Instrs = p.Instrs[:len(p.Instrs)-1] // drop HALT; targets of n now hit the latch
	p.Instrs = append(p.Instrs,
		isa.Instr{Op: isa.OpAddI, Rd: 12, Rs1: 12, Imm: 1},
		isa.Instr{Op: isa.OpCmpI, Rs1: 12, Imm: iters},
		isa.Instr{Op: isa.OpJlt, Imm: 0},
		isa.Instr{Op: isa.OpHalt},
	)
	return p
}

// TestSuperblockVsStepDifferential is the acceptance pin for the
// superblock tier: across ≥1000 random programs — straight-line and
// looping — the specialized trace loops must be byte-identical to
// per-instruction StepInto.
func TestSuperblockVsStepDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 700; trial++ {
		prog := randRunnableProgram(rng, 10+rng.Intn(80), 4096)
		diffSuperProgram(t, "sb-trial", prog, rng, false, 0)
	}
	for trial := 0; trial < 300; trial++ {
		prog := randLoopProgram(rng, 5+rng.Intn(40), int64(2+rng.Intn(6)), 4096)
		diffSuperProgram(t, "sb-loop-trial", prog, rng, false, 0)
	}
}

// TestSuperblockVsStepSMT replays random loop programs in block mode
// under tight quantum budgets: a superblock activation must clip at
// exactly the busy cycle the reference does, expose the same stalls on
// the same instructions, and resume mid-trace without drift.
func TestSuperblockVsStepSMT(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		prog := randRunnableProgram(rng, 10+rng.Intn(80), 4096)
		budget := uint64(1 + rng.Intn(8)) // incl. quantum 4, the SMT default
		diffSuperProgram(t, "sb-smt", prog, rng, true, budget)
	}
	for trial := 0; trial < 150; trial++ {
		prog := randLoopProgram(rng, 5+rng.Intn(40), int64(2+rng.Intn(6)), 4096)
		budget := uint64(1 + rng.Intn(8))
		diffSuperProgram(t, "sb-smt-loop", prog, rng, true, budget)
	}
}

// TestSuperblockCallsAndLoops covers mixed trace/non-trace flow: a hot
// loop with memory traffic (loop-superblock candidate) interrupted every
// iteration by a CALL, which is not traceable — so execution alternates
// between trace activations and generic dispatch.
func TestSuperblockCallsAndLoops(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
        movi r2, 0
    loop:
        add  r4, r2, r13
        load r3, [r4]
        add  r1, r1, r3
        call bump
        addi r2, r2, 64
        andi r2, r2, 0xFFF
        cmpi r0, 400
        jlt  loop
        halt
    bump:
        addi r0, r0, 1
        mul  r5, r0, r0
        ret
    `)
	rng := rand.New(rand.NewSource(7))
	diffSuperProgram(t, "sb-calls-loops", prog, rng, false, 0)
}

// TestSuperblockFaults pins the fault surface through the trace loop: a
// faulting memory step must park the PC on the faulting instruction with
// the exact counter state — including the batched per-PC Exec flush of
// every instruction retired before the fault — StepInto produces.
func TestSuperblockFaults(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r2, 0
    loop:
        addi r1, r1, 1
        add  r4, r2, r13
        load r3, [r4]
        addi r2, r2, 1048576
        cmpi r1, 10
        jlt  loop
        halt
    `)
	rng := rand.New(rand.NewSource(11))
	diffSuperProgram(t, "sb-fault", prog, rng, false, 0)
	// Same program, store side.
	sprog := isa.MustAssemble(`
        movi r2, 0
    loop:
        addi r1, r1, 1
        add  r4, r2, r13
        store [r4], r1
        addi r2, r2, 1048576
        cmpi r1, 10
        jlt  loop
        halt
    `)
	diffSuperProgram(t, "sb-fault-store", sprog, rng, false, 0)
}

// TestSuperblockFlushInvalidation drives the reference and the trace
// tier in lockstep with a hierarchy Flush injected at every pause: the
// flush advances the residency generation, so armed memos must re-prove
// (and fail, falling back to the full walk) instead of replaying stale
// hits.
func TestSuperblockFlushInvalidation(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
    loop:
        addi r1, r1, 1
        load r3, [r13]
        load r4, [r13+8]
        add  r5, r3, r4
        cmpi r1, 300
        jlt  loop
        halt
    `)
	var initRegs [isa.NumRegs]uint64
	arena := make([]uint64, 512)
	for i := range arena {
		arena[i] = uint64(i * 3)
	}
	a := newEngineRig(prog, initRegs, arena)
	b := newEngineRig(prog, initRegs, arena)
	var sr StepResult
	var br BlockResult
	for !b.ctx.Halted {
		if err := b.core.RunBlock(b.ctx, false, 17, 0, &br); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < br.Steps; i++ {
			if err := a.core.StepInto(a.ctx, false, &sr); err != nil {
				t.Fatal(err)
			}
		}
		a.core.Hier.Flush()
		b.core.Hier.Flush()
	}
	assertRigsEqual(t, "sb-flush", a, b)
}

// TestSuperblockMemoArms is the white-box check that the residency memo
// actually engages: after a hot loop whose loads hit one resident line,
// some compiled mem step must hold an armed memo (otherwise the
// AccessResident path was never reachable and the differential suite was
// vacuously passing on the slow path).
func TestSuperblockMemoArms(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
    loop:
        addi r1, r1, 1
        load r3, [r13]
        add  r5, r5, r3
        cmpi r1, 200
        jlt  loop
        halt
    `)
	rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 64))
	var res BlockResult
	for !rig.ctx.Halted {
		if err := rig.core.RunBlock(rig.ctx, false, 1<<20, 0, &res); err != nil {
			t.Fatal(err)
		}
	}
	armed := false
	for i := range rig.core.sbs {
		for _, st := range rig.core.sbs[i].steps {
			if st.kind == sbMem && st.memoGen != 0 {
				armed = true
			}
		}
	}
	if !armed {
		t.Fatal("no mem step armed its residency memo after a hot resident loop")
	}
	if got := rig.core.Hier.Gen(); got == 0 {
		t.Fatalf("hierarchy generation = 0, want nonzero (reserved as 'never proven')")
	}
}

// TestSuperblockObserverFallback pins the profiling contract one tier
// up: with an observer attached, a core with superblocks installed must
// deliver the identical per-instruction event stream StepInto does —
// the trace tier, like the block engine, is bypassed entirely.
func TestSuperblockObserverFallback(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
    loop:
        addi r1, r1, 1
        add  r4, r1, r13
        andi r4, r4, 0xFF8
        add  r4, r4, r13
        load r3, [r4]
        cmpi r1, 200
        jlt  loop
        halt
    `)
	run := func(useSuper bool) (*engineRig, []RetireEvent, []BranchEvent) {
		rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 1024))
		rec := &blockEventRecorder{}
		rig.core.Observe(rec)
		if useSuper {
			var res BlockResult
			for !rig.ctx.Halted {
				if err := rig.core.RunBlock(rig.ctx, false, 1<<20, 0, &res); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			var res StepResult
			for !rig.ctx.Halted {
				if err := rig.core.StepInto(rig.ctx, false, &res); err != nil {
					t.Fatal(err)
				}
			}
		}
		return rig, rec.retires, rec.branches
	}
	a, aRet, aBr := run(false)
	b, bRet, bBr := run(true)
	if !reflect.DeepEqual(aRet, bRet) {
		t.Fatalf("retire event streams diverge: %d vs %d events", len(aRet), len(bRet))
	}
	if !reflect.DeepEqual(aBr, bBr) {
		t.Fatalf("branch event streams diverge: %d vs %d events", len(aBr), len(bBr))
	}
	assertRigsEqual(t, "sb-observer-fallback", a, b)
}

// TestDeriveSuperblocks pins the production deriver on a hand-worked
// program: heads only at pc 0 and backward-branch targets, the static
// prediction of each branch, loop closure at the head, the stops at
// prefetch, yield and call, the minimum-length filter and the length
// cap — and that NewCore installs both fast tiers from it.
func TestDeriveSuperblocks(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0          ; 0  head: program entry
    top:
        addi r1, r1, 1      ; 1  head: target of the backward jlt
        cmpi r1, 5          ; 2
        jeq  mid            ; 3  forward conditional: falls through
        load r3, [r13]      ; 4
        cmpi r1, 10         ; 5
        jlt  top            ; 6  backward conditional: taken
    pf:
        addi r2, r2, 1      ; 7  head: target of the backward jmp
    mid:
        addi r2, r2, 2      ; 8  forward target only: not a head
        prefetch [r13]      ; 9  ends the trace headed at 7
        yield 0x8000        ; 10
        jmp  pf             ; 11
    y:
        addi r3, r3, 1      ; 12 head
        addi r3, r3, 1      ; 13
        addi r3, r3, 1      ; 14
        addi r3, r3, 1      ; 15
        yield 0x8000        ; 16 ends the trace headed at 12
        jne  y              ; 17
    c:
        movi r4, 0          ; 18 head
        jmp  c2             ; 19 forward jmp: taken
        halt                ; 20
    c2:
        addi r4, r4, 1      ; 21
        addi r4, r4, 1      ; 22
        call sub            ; 23 ends the trace headed at 18
        jge  c              ; 24
        halt                ; 25
    sub:
        ret                 ; 26
    `)
	span := func(lo, hi int) []int {
		var pcs []int
		for pc := lo; pc <= hi; pc++ {
			pcs = append(pcs, pc)
		}
		return pcs
	}
	want := []sbSpec{
		{PCs: span(0, 6)}, // re-enters the trace at 1, not at its head
		{PCs: span(1, 6), Loop: true},
		{PCs: span(12, 15)},
		{PCs: []int{18, 19, 21, 22}},
	}
	if got := deriveSuperblocks(prog.Instrs, sbMinLen); !reflect.DeepEqual(got, want) {
		t.Errorf("deriveSuperblocks(sbMinLen) =\n %+v\nwant\n %+v", got, want)
	}
	short := append(want[:2:2], sbSpec{PCs: []int{7, 8}})
	short = append(short, want[2:]...)
	if got := deriveSuperblocks(prog.Instrs, 2); !reflect.DeepEqual(got, short) {
		t.Errorf("deriveSuperblocks(2) =\n %+v\nwant\n %+v", got, short)
	}

	core := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 8)).core
	if core.plan == nil {
		t.Fatal("NewCore installed no block plan")
	}
	for pc, head := range []bool{0: true, 1: true, 12: true, 18: true, 26: false} {
		if got := core.sbEntry[pc] >= 0; got != head {
			t.Errorf("NewCore: trace at pc %d = %v, want %v", pc, got, head)
		}
	}

	if got := deriveSuperblocks(nil, sbMinLen); got != nil {
		t.Errorf("empty program: got %+v, want no traces", got)
	}

	// A straight line longer than the cap yields one capped, open trace.
	long := &isa.Program{}
	for i := 0; i < sbMaxLen+100; i++ {
		long.Instrs = append(long.Instrs, isa.Instr{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 1})
	}
	long.Instrs = append(long.Instrs, isa.Instr{Op: isa.OpJmp, Imm: 0})
	got := deriveSuperblocks(long.Instrs, sbMinLen)
	if len(got) != 1 {
		t.Fatalf("long straight line: got %d traces, want 1", len(got))
	}
	if !reflect.DeepEqual(got[0].PCs, span(0, sbMaxLen-1)) || got[0].Loop {
		t.Errorf("long straight line: trace of %d pcs (loop %v), want pcs 0..%d, open",
			len(got[0].PCs), got[0].Loop, sbMaxLen-1)
	}
}

// TestInstallSuperblocksValidation exercises the defensive checks: a
// buggy deriver must be rejected at install, never mis-executed.
func TestInstallSuperblocksValidation(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 0
    loop:
        addi r1, r1, 1
        load r3, [r13]
        cmpi r1, 10
        jlt  loop
        call sub
        halt
    sub:
        ret
    `)
	rig := newEngineRig(prog, [isa.NumRegs]uint64{}, make([]uint64, 64))
	cases := []struct {
		name string
		spec sbSpec
	}{
		{"empty", sbSpec{}},
		{"pc out of range", sbSpec{PCs: []int{0, 99}}},
		{"negative pc", sbSpec{PCs: []int{-1}}},
		{"not traceable (call)", sbSpec{PCs: []int{5}}},
		{"disconnected", sbSpec{PCs: []int{0, 2}}},
		{"branch to unrelated pc", sbSpec{PCs: []int{3, 4, 0}}},
		{"loop closing on non-branch", sbSpec{PCs: []int{1, 2}, Loop: true}},
	}
	for _, tc := range cases {
		if err := rig.core.installSuperblocks([]sbSpec{tc.spec}); err == nil {
			t.Errorf("%s: install accepted invalid spec %+v", tc.name, tc.spec)
		}
	}
	// And the valid loop trace installs.
	valid := sbSpec{PCs: []int{1, 2, 3, 4}, Loop: true}
	if err := rig.core.installSuperblocks([]sbSpec{valid}); err != nil {
		t.Fatalf("valid loop spec rejected: %v", err)
	}
	if len(rig.core.sbs) != 1 || rig.core.sbEntry[1] != 0 {
		t.Fatalf("valid loop spec not installed at pc 1: %d traces", len(rig.core.sbs))
	}
	rig.core.ClearSuperblocks()
	if rig.core.sbEntry != nil {
		t.Fatal("superblock entry table survives ClearSuperblocks")
	}
}
