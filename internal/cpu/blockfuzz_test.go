package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// FuzzBlockVsStep is the fuzzing face of TestBlockVsStepDifferential:
// any seed must produce byte-identical behaviour between the block
// engine and per-instruction StepInto, in both coroutine and SMT
// (block) mode. The loop flag wraps the random body in a counted
// backward branch, so fuel and budget splits also land across
// iteration boundaries. The corpus seeds cover both modes, both program
// shapes and a spread of program sizes; the fuzzer explores the seed
// space from there.
func FuzzBlockVsStep(f *testing.F) {
	f.Add(int64(1), uint8(20), false, uint8(0), false)
	f.Add(int64(2), uint8(80), false, uint8(0), false)
	f.Add(int64(3), uint8(40), true, uint8(4), false)
	f.Add(int64(4), uint8(90), true, uint8(1), false)
	f.Add(int64(5), uint8(30), false, uint8(0), true)
	f.Add(int64(6), uint8(40), true, uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, block bool, budget uint8, loop bool) {
		n := 5 + int(size)%86 // program length in [5, 90]
		rng := rand.New(rand.NewSource(seed))
		var prog *isa.Program
		if loop {
			prog = randLoopProgram(rng, n, int64(2+seed%5), 4096)
		} else {
			prog = randRunnableProgram(rng, n, 4096)
		}
		var b uint64
		if block {
			b = 1 + uint64(budget)%16
		}
		diffOneProgram(t, "fuzz", prog, rng, block, b)
	})
}
