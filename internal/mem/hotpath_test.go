package mem

import (
	"math/rand"
	"testing"
)

// This file pins the hierarchy hot-path invariants the MRU-way fast path
// leans on: exact-LRU promotion order through the packed-order probe,
// the read-only contract of the presence probes, fills landing into a
// set mid-sequence, and SharedLLC bank-conflict accounting across
// quantum boundaries.

// orderTags reconstructs a packed-order set's recency order, MRU first,
// from the order word — the ground truth victim selection reads.
func orderTags(c *cache, set uint64) []uint64 {
	n := int(c.used[set])
	base := set * uint64(c.ways)
	out := make([]uint64, 0, n)
	for p := 0; p < n; p++ {
		w := (c.order[set] >> uint(4*p)) & 0xF
		out = append(out, c.tags[base+w])
	}
	return out
}

// TestCacheAccessMatchesReferenceLRU drives the fused access probe —
// including its MRU-way fast path — against a straightforward
// list-shuffling exact-LRU model and compares the full recency order,
// hit/miss outcome, and dirty-victim signal after every access.
func TestCacheAccessMatchesReferenceLRU(t *testing.T) {
	const ways = 4
	c := newCache(ways*64, 64, ways) // single set
	type refEntry struct {
		tag   uint64
		dirty bool
	}
	var model []refEntry // front = MRU
	refAccess := func(tag uint64, write bool) (bool, bool) {
		for i := range model {
			if model[i].tag == tag {
				e := model[i]
				e.dirty = e.dirty || write
				model = append(model[:i], model[i+1:]...)
				model = append([]refEntry{e}, model...)
				return true, false
			}
		}
		e := refEntry{tag, write}
		if len(model) < ways {
			model = append([]refEntry{e}, model...)
			return false, false
		}
		victim := model[len(model)-1]
		model = append([]refEntry{e}, model[:len(model)-1]...)
		return false, victim.dirty
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		tag := uint64(1 + rng.Intn(8)) // 8 hot lines over 4 ways: hits and evictions
		write := rng.Intn(3) == 0
		hit, wasDirty := c.access(tag, write)
		wantHit, wantDirty := refAccess(tag, write)
		if hit != wantHit || wasDirty != wantDirty {
			t.Fatalf("access %d (tag %d, write %v): got (hit=%v, dirty=%v), want (%v, %v)",
				i, tag, write, hit, wasDirty, wantHit, wantDirty)
		}
		got := orderTags(c, 0)
		if len(got) != len(model) {
			t.Fatalf("access %d: occupancy %d, want %d", i, len(got), len(model))
		}
		for p := range got {
			if got[p] != model[p].tag {
				t.Fatalf("access %d: recency position %d holds tag %d, want %d (order %v)",
					i, p, got[p], model[p].tag, got)
			}
		}
	}
}

// wayIndex returns the flat tags/dirty index of tag's way, if resident.
func wayIndex(c *cache, tag uint64) (uint64, bool) {
	base := ((tag - 1) & c.setMask) * uint64(c.ways)
	for w := base; w < base+uint64(c.ways); w++ {
		if c.tags[w] == tag {
			return w, true
		}
	}
	return 0, false
}

// TestCacheMRUFastPathNoReorder pins the property the fast path depends
// on: a hit on the most-recent way is a recency no-op, so skipping the
// promotion entirely must leave the order word bit-identical — while a
// write through the fast path must still raise the dirty bit.
func TestCacheMRUFastPathNoReorder(t *testing.T) {
	c := newCache(4*64, 64, 4)
	for tag := uint64(1); tag <= 3; tag++ {
		c.access(tag, false)
	}
	before := c.order[0]
	if hit, _ := c.access(3, false); !hit {
		t.Fatal("re-access of MRU tag 3 missed")
	}
	if c.order[0] != before {
		t.Errorf("MRU re-access changed order word: %#x -> %#x", before, c.order[0])
	}
	idx, ok := wayIndex(c, 3)
	if !ok {
		t.Fatal("tag 3 not resident after MRU access")
	}
	if c.dirty[idx] {
		t.Fatal("line dirty before any write")
	}
	if hit, _ := c.access(3, true); !hit {
		t.Fatal("MRU write hit missed")
	}
	if !c.dirty[idx] {
		t.Error("MRU fast-path write did not mark the line dirty")
	}
	if c.order[0] != before {
		t.Errorf("MRU write changed order word: %#x -> %#x", before, c.order[0])
	}
	// A non-MRU hit must still promote.
	if hit, _ := c.access(1, false); !hit {
		t.Fatal("tag 1 missed")
	}
	if got := orderTags(c, 0); got[0] != 1 {
		t.Errorf("non-MRU hit did not promote: order %v", got)
	}
}

// TestContainsLeavesStateUntouched checks the presence probes against a
// byte-for-byte snapshot of the replacement state: contains/containsTag
// must not move recency, occupancy, tags, or dirty bits, and a
// subsequent miss must evict the same victim it would have without the
// probes.
func TestContainsLeavesStateUntouched(t *testing.T) {
	c := newCache(2*64, 64, 2) // single 2-way set
	c.access(1, false)
	c.access(2, true) // MRU=2, LRU=1

	snapOrder, snapUsed := c.order[0], c.used[0]
	snapTags := append([]uint64(nil), c.tags...)
	snapDirty := append([]bool(nil), c.dirty...)
	for i := 0; i < 10; i++ {
		c.contains(0)      // hit on LRU line (line 0 → tag 1)
		c.contains(5 * 64) // miss
		c.containsTag(2)   // hit on MRU
		c.containsTag(99)  // miss
	}
	if c.order[0] != snapOrder || c.used[0] != snapUsed {
		t.Fatalf("presence probes perturbed recency: order %#x->%#x used %d->%d",
			snapOrder, c.order[0], snapUsed, c.used[0])
	}
	for i := range snapTags {
		if c.tags[i] != snapTags[i] || c.dirty[i] != snapDirty[i] {
			t.Fatalf("presence probes changed way %d: tag %d->%d dirty %v->%v",
				i, snapTags[i], c.tags[i], snapDirty[i], c.dirty[i])
		}
	}
	// Victim unchanged: the probed-but-never-accessed tag 1 is still LRU.
	c.access(3, false)
	if c.containsTag(1) {
		t.Error("eviction spared tag 1: Contains probes must not have refreshed it")
	}
	if !c.containsTag(2) {
		t.Error("eviction took MRU tag 2 instead of LRU tag 1")
	}
}

// oneSetConfig shrinks L1 to a single 8-way set so eviction order is
// directly observable, with the stream prefetcher off so only explicit
// calls start fills.
func oneSetConfig() Config {
	cfg := DefaultConfig()
	cfg.L1Size = 8 * 64
	cfg.L1Ways = 8
	cfg.MaxInflight = 1
	cfg.HWPrefetchDistance = 0
	return cfg
}

// TestFillLandsMidWalk drives a fill landing into a full set between two
// probes of that set: the reclaim walk inside a later Prefetch call must
// install the completed fill over the exact LRU way and leave every
// other way resident.
func TestFillLandsMidWalk(t *testing.T) {
	h := MustNewHierarchy(oneSetConfig())
	now := uint64(0)
	for i := uint64(0); i < 8; i++ { // fill the single L1 set; line 0 ends up LRU
		h.AccessW(i*64, now, false)
		now += 10
	}

	const fillLine = 0x2000
	lvl, completion := h.Prefetch(fillLine, 1000)
	if lvl != LevelDRAM || completion != 1000+h.cfg.LatDRAM {
		t.Fatalf("prefetch served from %v completing at %d, want DRAM at %d", lvl, completion, 1000+h.cfg.LatDRAM)
	}
	if h.Contains(fillLine, completion-1, LevelL1) {
		t.Fatal("fill resident at L1 before it completed")
	}

	// The MSHR budget is 1, so this second prefetch must reclaim the
	// completed fill — installing fillLine into the full set mid-call.
	h.Prefetch(0x4000, completion+100)

	if !h.Contains(fillLine, completion+100, LevelL1) {
		t.Error("reclaimed fill not resident at L1")
	}
	if !h.l1.contains(fillLine) {
		t.Error("completed fill not installed in L1")
	}
	if h.l1.contains(0) {
		t.Error("fill install evicted the wrong way: LRU line 0 still resident means another line was lost")
	}
	for i := uint64(1); i < 8; i++ {
		if !h.l1.contains(i * 64) {
			t.Errorf("fill install evicted non-LRU line %#x", i*64)
		}
	}
	if got := h.fills.len(); got != 1 {
		t.Fatalf("fill table holds %d entries, want 1 (the second prefetch)", got)
	}

	// A demand access that meets its own in-flight fill consumes the MSHR
	// and pays the residual latency.
	res := h.AccessW(0x4000, completion+150, false)
	if res.Level != LevelInflight {
		t.Fatalf("demand access on in-flight line served from %v, want inflight", res.Level)
	}
	if want := (completion + 100 + h.cfg.LatDRAM) - (completion + 150); res.Latency != want {
		t.Errorf("residual latency %d, want %d", res.Latency, want)
	}
	if h.fills.len() != 0 {
		t.Error("demand access did not consume the in-flight fill")
	}
}

// smallLLC builds a two-bank LLC with tiny port and MSHR budgets so a
// handful of accesses oversubscribes it.
func smallLLC(t *testing.T) *SharedLLC {
	t.Helper()
	llc, err := NewSharedLLC(LLCConfig{
		Banks:        2,
		Size:         2048, // 4 sets × 4 ways × 64 B per bank
		Ways:         4,
		LineSize:     64,
		LatL3:        50,
		LatDRAM:      300,
		BankPorts:    4,
		QueuePenalty: 8,
		MSHRs:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return llc
}

// TestLLCBankConflictAcrossQuantumBoundaries pins the bound-weave
// contention accounting: an oversubscribed quantum is itself penalty-free,
// the derived bank and MSHR penalties bite exactly one quantum later, and
// a light quantum clears them at the next boundary.
func TestLLCBankConflictAcrossQuantumBoundaries(t *testing.T) {
	llc := smallLLC(t)
	v := llc.NewView(0)
	bank0 := func(k uint64) uint64 { return 2 * k * 64 } // even line index → bank 0

	// Quantum 1: 12 misses, all to bank 0. Penalties derive from the
	// PREVIOUS quantum's committed load, so none apply yet.
	for k := uint64(0); k < 12; k++ {
		lvl, lat := v.Demand(bank0(k))
		if lvl != LevelDRAM || lat != 300 {
			t.Fatalf("quantum 1 access %d: (%v, %d), want uncontended DRAM at 300", k, lvl, lat)
		}
	}
	llc.Commit()
	if llc.Stats.Misses != 12 || llc.Stats.Queued != 0 {
		t.Fatalf("after quantum 1: misses %d queued %d, want 12 and 0", llc.Stats.Misses, llc.Stats.Queued)
	}
	if llc.Stats.PeakBankLoad != 12 {
		t.Errorf("peak bank load %d, want 12", llc.Stats.PeakBankLoad)
	}

	// Quantum 2: bank 0 committed 12 accesses against 4 ports → queue
	// penalty 8×⌊(12−4)/4⌋ = 16 per access; 12 misses against 4 MSHRs add
	// another 16 to DRAM-bound accesses. The hit pays only the bank
	// penalty; the miss (bank 1, load 0 last quantum) pays only MSHR
	// pressure.
	if lvl, lat := v.Demand(bank0(0)); lvl != LevelL3 || lat != 50+16 {
		t.Fatalf("quantum 2 hot-bank hit: (%v, %d), want L3 at 66", lvl, lat)
	}
	if lvl, lat := v.Demand(64); lvl != LevelDRAM || lat != 300+16 {
		t.Fatalf("quantum 2 cold-bank miss: (%v, %d), want DRAM at 316", lvl, lat)
	}
	llc.Commit()
	if llc.Stats.Hits != 1 || llc.Stats.Misses != 13 {
		t.Errorf("after quantum 2: hits %d misses %d, want 1 and 13", llc.Stats.Hits, llc.Stats.Misses)
	}
	if llc.Stats.Queued != 2 || llc.Stats.QueueCycles != 32 {
		t.Errorf("after quantum 2: queued %d cycles %d, want 2 and 32", llc.Stats.Queued, llc.Stats.QueueCycles)
	}

	// Quantum 3: last quantum was light (one access per bank), so the
	// boundary cleared every penalty.
	if lvl, lat := v.Demand(bank0(0)); lvl != LevelL3 || lat != 50 {
		t.Fatalf("quantum 3 hit after light quantum: (%v, %d), want uncontended L3 at 50", lvl, lat)
	}
}

// TestLLCFillTrafficQueuesAndClamps checks that Fill logs (private-level
// fills landing) count toward bank load, and that oversubscription of
// less than one full BankPorts quantum still charges the minimum
// QueuePenalty — the clamp branch.
func TestLLCFillTrafficQueuesAndClamps(t *testing.T) {
	llc := smallLLC(t)
	v := llc.NewView(0)
	for k := uint64(0); k < 5; k++ { // 5 fills > 4 ports, but (5−4)/4 rounds to 0
		v.Fill(2 * k * 64)
	}
	llc.Commit()
	if llc.Stats.PeakBankLoad != 5 {
		t.Errorf("peak bank load %d, want 5 (fills must count)", llc.Stats.PeakBankLoad)
	}
	// Fills were committed, so the re-probe hits; the penalty clamps up
	// to one QueuePenalty rather than rounding down to zero.
	if lvl, lat := v.Demand(0); lvl != LevelL3 || lat != 50+8 {
		t.Fatalf("post-fill probe: (%v, %d), want L3 at 58 (clamped queue penalty)", lvl, lat)
	}
}
