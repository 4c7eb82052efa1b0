package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/coro"
	"repro/internal/isa"
	"repro/internal/mem"
)

// randRunnableProgram generates a random but guaranteed-terminating
// program: straight-line ALU/memory/compare instructions with only
// forward branches, all memory accesses confined to a valid arena
// addressed through pinned register r13, ending in HALT.
func randRunnableProgram(rng *rand.Rand, n int, arenaSize int64) *isa.Program {
	p := &isa.Program{}
	reg := func() isa.Reg { return isa.Reg(rng.Intn(12)) } // r0..r11
	off := func() int64 { return int64(rng.Intn(int(arenaSize/8)-1)) * 8 }
	for i := 0; i < n; i++ {
		switch rng.Intn(13) {
		case 0:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpMovI, Rd: reg(), Imm: int64(rng.Intn(1<<16) - 1<<15)})
		case 1:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpAdd, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 2:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpSub, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 3:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpMul, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 4:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpDiv, Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 5:
			ops := []isa.Op{isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr}
			p.Instrs = append(p.Instrs, isa.Instr{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 6:
			ops := []isa.Op{isa.OpAddI, isa.OpMulI, isa.OpAndI, isa.OpShlI, isa.OpShrI}
			p.Instrs = append(p.Instrs, isa.Instr{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Imm: int64(rng.Intn(64))})
		case 7:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpLoad, Rd: reg(), Rs1: 13, Imm: off()})
		case 8:
			p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpStore, Rs1: 13, Rs2: reg(), Imm: off()})
		case 9:
			if rng.Intn(2) == 0 {
				p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpCmp, Rs1: reg(), Rs2: reg()})
			} else {
				p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpCmpI, Rs1: reg(), Imm: int64(rng.Intn(200) - 100)})
			}
		case 10:
			// Forward conditional branch (guarantees termination).
			ops := []isa.Op{isa.OpJeq, isa.OpJne, isa.OpJlt, isa.OpJle, isa.OpJgt, isa.OpJge, isa.OpJmp}
			target := i + 1 + rng.Intn(n-i) // in (i, n]
			p.Instrs = append(p.Instrs, isa.Instr{Op: ops[rng.Intn(len(ops))], Imm: int64(target)})
		case 12:
			// Adjacent submit/collect accelerator pair (the reference and
			// the core must agree on the checksum semantics).
			p.Instrs = append(p.Instrs,
				isa.Instr{Op: isa.OpAccel, Rs1: 13, Imm: off()},
				isa.Instr{Op: isa.OpAccWait, Rd: reg()},
			)
			i++ // emitted two instructions
		case 11:
			ops := []isa.Op{isa.OpNop, isa.OpPrefetch, isa.OpYield, isa.OpCYield, isa.OpCheck}
			in := isa.Instr{Op: ops[rng.Intn(len(ops))]}
			if in.Op == isa.OpPrefetch || in.Op == isa.OpCheck {
				in.Rs1, in.Imm = 13, off()
			}
			if in.Op.IsYield() {
				in.Imm = int64(isa.AllRegs)
			}
			p.Instrs = append(p.Instrs, in)
		}
	}
	p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpHalt})
	return p
}

// randLoopProgram wraps a random straight-line body in a counted loop:
// the body (forward branches only, memory confined to the r13 arena)
// falls through into a loop latch on r12, which the generator's body
// never touches. Re-running the body carries fill timing, recency state
// and fuel or budget splits across iteration boundaries.
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

// TestDifferentialAgainstReference cross-checks the cycle-level core's
// architectural semantics against the timing-free reference interpreter
// on random programs: final registers, flags, results and memory must
// agree exactly.
func TestDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const arenaSize = 4096
	for trial := 0; trial < 300; trial++ {
		prog := randRunnableProgram(rng, 10+rng.Intn(80), arenaSize)

		memA := mem.NewMemory(1 << 16)
		memB := mem.NewMemory(1 << 16)
		arenaA := memA.Alloc(arenaSize, 64)
		arenaB := memB.Alloc(arenaSize, 64)
		if arenaA != arenaB {
			t.Fatal("arenas diverge")
		}
		var initRegs [isa.NumRegs]uint64
		for r := 0; r < 12; r++ {
			initRegs[r] = uint64(rng.Intn(1 << 20))
		}
		initRegs[13] = arenaA
		for i := uint64(0); i < arenaSize; i += 8 {
			v := uint64(rng.Intn(1 << 24))
			memA.MustWrite64(arenaA+i, v)
			memB.MustWrite64(arenaB+i, v)
		}

		// Cycle-level core.
		core := MustNewCore(DefaultConfig(), prog, memA, mem.MustNewHierarchy(mem.DefaultConfig()))
		ctx := coro.NewContext(0, 0, memA.Size()-8)
		ctx.Regs = initRegs
		ctx.Regs[isa.SP] = memA.Size() - 8
		for !ctx.Halted {
			if _, err := step(core, ctx, false); err != nil {
				t.Fatalf("trial %d: core: %v\n%s", trial, err, isa.Disassemble(prog))
			}
		}

		// Reference interpreter.
		ref := &isa.RefState{PC: 0}
		ref.Regs = initRegs
		ref.Regs[isa.SP] = memB.Size() - 8
		if err := isa.RefRun(prog, ref, memB, 1<<20); err != nil {
			t.Fatalf("trial %d: reference: %v\n%s", trial, err, isa.Disassemble(prog))
		}

		if ctx.Result != ref.Result {
			t.Fatalf("trial %d: result %d != reference %d\n%s", trial, ctx.Result, ref.Result, isa.Disassemble(prog))
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if ctx.Regs[r] != ref.Regs[r] {
				t.Fatalf("trial %d: r%d = %#x != reference %#x\n%s", trial, r, ctx.Regs[r], ref.Regs[r], isa.Disassemble(prog))
			}
		}
		if ctx.Flags != ref.Flags {
			t.Fatalf("trial %d: flags %d != reference %d", trial, ctx.Flags, ref.Flags)
		}
		a, b := memA.Snapshot(), memB.Snapshot()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: memory diverges at %#x", trial, i)
			}
		}
	}
}

// TestDifferentialWithCalls cross-checks CALL/RET handling specifically
// (the random generator above omits them to guarantee termination).
func TestDifferentialWithCalls(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r1, 3
        call f
        call g
        halt
    f:
        addi r1, r1, 10
        ret
    g:
        call f
        addi r1, r1, 100
        ret
    `)
	m1 := mem.NewMemory(1 << 16)
	core := MustNewCore(DefaultConfig(), prog, m1, mem.MustNewHierarchy(mem.DefaultConfig()))
	ctx := coro.NewContext(0, 0, m1.Size()-8)
	for !ctx.Halted {
		if _, err := step(core, ctx, false); err != nil {
			t.Fatal(err)
		}
	}
	m2 := mem.NewMemory(1 << 16)
	ref := &isa.RefState{}
	ref.Regs[isa.SP] = m2.Size() - 8
	if err := isa.RefRun(prog, ref, m2, 1000); err != nil {
		t.Fatal(err)
	}
	if ctx.Result != ref.Result || ctx.Result != 123 {
		t.Fatalf("core %d, reference %d, want 123", ctx.Result, ref.Result)
	}
}

// TestDifferentialAccelerator cross-checks the accelerator's functional
// semantics (timing aside) between the core and the reference.
func TestDifferentialAccelerator(t *testing.T) {
	prog := isa.MustAssemble(`
        movi r2, 4096
        movi r3, 4
    loop:
        accel [r2]
        addi r0, r0, 1
        accwait r4
        add r1, r1, r4
        addi r2, r2, 64
        addi r3, r3, -1
        cmpi r3, 0
        jgt loop
        halt
    `)
	mkMem := func() *mem.Memory {
		m := mem.NewMemory(1 << 16)
		for i := uint64(0); i < 4*64; i += 8 {
			m.MustWrite64(4096+i, i*3+7)
		}
		return m
	}
	m1 := mkMem()
	core := MustNewCore(DefaultConfig(), prog, m1, mem.MustNewHierarchy(mem.DefaultConfig()))
	ctx := coro.NewContext(0, 0, m1.Size()-8)
	var sawStall bool
	for !ctx.Halted {
		r, err := step(core, ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		if r.Op == isa.OpAccWait && r.Stall > 0 {
			sawStall = true
		}
	}
	if !sawStall {
		t.Error("accwait never stalled despite minimal intervening work")
	}
	m2 := mkMem()
	ref := &isa.RefState{}
	ref.Regs[isa.SP] = m2.Size() - 8
	if err := isa.RefRun(prog, ref, m2, 10000); err != nil {
		t.Fatal(err)
	}
	if ctx.Result != ref.Result || ctx.Result == 0 {
		t.Fatalf("core %d != reference %d", ctx.Result, ref.Result)
	}
}

// TestAccWaitWithoutSubmit covers the sticky-completion-record semantics:
// waiting with nothing outstanding reads the last (zero) record and does
// not stall or fault.
func TestAccWaitWithoutSubmit(t *testing.T) {
	prog := isa.MustAssemble("accwait r1\nhalt")
	m := mem.NewMemory(1 << 12)
	core := MustNewCore(DefaultConfig(), prog, m, mem.MustNewHierarchy(mem.DefaultConfig()))
	ctx := coro.NewContext(0, 0, m.Size()-8)
	r, err := step(core, ctx, false)
	if err != nil {
		t.Fatalf("bare ACCWAIT should read the sticky record: %v", err)
	}
	if r.Stall != 0 || ctx.Regs[1] != 0 {
		t.Errorf("bare ACCWAIT: stall=%d r1=%d, want zero record", r.Stall, ctx.Regs[1])
	}
}
