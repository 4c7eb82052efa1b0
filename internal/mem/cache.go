package mem

import "fmt"

// Level identifies where an access was served from.
type Level uint8

// Hierarchy levels, ordered closest-first.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelDRAM
	// LevelInflight marks an access that met an in-flight fill started by
	// an earlier prefetch; the access pays only the residual latency.
	LevelInflight
	numLevels
)

// NumLevels is the number of Level values (including LevelInflight).
const NumLevels = int(numLevels)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelDRAM:
		return "DRAM"
	case LevelInflight:
		return "inflight"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// cache is one set-associative level with LRU replacement. Only tags are
// tracked; data lives in the flat Memory (the hierarchy models timing, not
// coherence).
//
// Replacement state is exact LRU. For up to 16 ways the full recency
// order of a set packs into one uint64 in `order` (sixteen 4-bit way
// indices, most-recent in the low nibble): victim selection reads one
// nibble and a touch is a few register shifts, instead of scanning and
// rewriting a per-way stamp array. Wider configurations fall back to
// per-way stamps. Both encode the same total recency order, so they are
// behaviorally identical.
type cache struct {
	sets uint64
	// setMask is sets-1: the set count is a power of two, so indexing is a
	// mask rather than a modulo on the hot path.
	setMask  uint64
	ways     int
	lineBits uint
	// tags[set*ways+way] holds the line address (addr >> lineBits) + 1,
	// with 0 meaning invalid.
	tags []uint64
	// dirty[set*ways+way] marks lines with unwritten-back stores.
	dirty []bool
	// used[set] counts occupied ways. Installs never invalidate and only
	// flush clears, so occupied ways are always the prefix [0, used).
	used []int32
	// order[set] is the packed recency order (ways <= 16): nibble 0 holds
	// the most-recently-used way index, nibble used-1 the LRU victim.
	// Nibbles at positions >= used are stale and never read.
	order []uint64
	// lru/stamp are the fallback replacement state for ways > 16:
	// lru[set*ways+way] holds the last-touch stamp.
	lru   []uint64
	stamp uint64
}

func newCache(sizeBytes, lineSize uint64, ways int) *cache {
	if ways <= 0 {
		panic("mem: cache ways must be positive")
	}
	if lineSize == 0 || lineSize&(lineSize-1) != 0 {
		panic("mem: line size must be a power of two")
	}
	lines := sizeBytes / lineSize
	sets := lines / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache set count %d must be a power of two (size %d, line %d, ways %d)", sets, sizeBytes, lineSize, ways))
	}
	lb := uint(0)
	for s := lineSize; s > 1; s >>= 1 {
		lb++
	}
	c := &cache{
		sets:     sets,
		setMask:  sets - 1,
		ways:     ways,
		lineBits: lb,
		tags:     make([]uint64, sets*uint64(ways)),
		dirty:    make([]bool, sets*uint64(ways)),
		used:     make([]int32, sets),
	}
	if ways <= 16 {
		c.order = make([]uint64, sets)
	} else {
		c.lru = make([]uint64, sets*uint64(ways))
	}
	return c
}

func (c *cache) line(addr uint64) uint64 { return addr >> c.lineBits }

// promote moves the way at recency position p of the packed order word to
// the front (nibble 0), preserving everything else.
func promote(word uint64, p int, way uint64) uint64 {
	keep := word &^ ((uint64(1) << uint(4*(p+1))) - 1)
	moved := (word & ((uint64(1) << uint(4*p)) - 1)) << 4
	return keep | moved | way
}

// access is the fused lookup+install probe: one set walk that refreshes
// recency on a hit, or installs the line over a free or LRU way on a
// miss. It returns whether the probe hit and whether a dirty victim was
// evicted (the caller owes a write-back). When write is set the line's
// dirty bit is raised in place of a separate markDirty walk.
//
// The probe takes the line tag (line address >> lineBits, plus 1 so zero
// means invalid) rather than a byte address: every level shares the line
// size, so the hierarchy computes the tag once per access and probes all
// three levels with it.
//
// Equivalence with the old lookup-then-install pair: both make the
// accessed line the most recent in its set (the pair bumped its stamp
// twice per access, this probe once — relative recency order, the only
// thing victim selection reads, is identical), free ways are claimed
// first-ascending, and the victim is the unique least-recent way.
func (c *cache) access(tag uint64, write bool) (hit, wasDirty bool) {
	if c.order == nil {
		return c.accessStamp(tag, write)
	}
	set := (tag - 1) & c.setMask
	base := set * uint64(c.ways)
	n := uint64(c.used[set])
	// MRU-way fast path: hit-dominated streams overwhelmingly re-touch
	// the most-recent line of a set, whose way index is nibble 0 of the
	// packed order word. One tag compare decides, and a front hit needs
	// neither the occupied-prefix scan nor a promotion (p == 0 is the
	// no-op case of the general walk below), so the common hit costs a
	// couple of loads instead of a scan.
	if n > 0 {
		if w := c.order[set] & 0xF; c.tags[base+w] == tag {
			if write {
				c.dirty[base+w] = true
			}
			return true, false
		}
	}
	occ := c.tags[base : base+n : base+n]
	// Hit scan covers only the occupied prefix; free ways cannot hit.
	for i, t := range occ {
		if t == tag { // hit: move to recency front
			word := c.order[set]
			wi := uint64(i)
			p := 0
			for (word>>uint(4*p))&0xF != wi {
				p++
			}
			if p != 0 {
				c.order[set] = promote(word, p, wi)
			}
			if write {
				c.dirty[base+uint64(i)] = true
			}
			return true, false
		}
	}
	// Miss with a free way: claim the first, which is the occupancy
	// count itself (free ways are claimed in ascending order).
	if int(n) < c.ways {
		c.used[set] = int32(n) + 1
		c.order[set] = c.order[set]<<4 | n
		c.tags[base+n] = tag
		c.dirty[base+n] = write
		return false, false
	}
	// Miss with the set full: evict the least-recent way — the victim
	// nibble — and move it to the front as the freshly installed line.
	word := c.order[set]
	p := c.ways - 1
	w := (word >> uint(4*p)) & 0xF
	c.order[set] = promote(word, p, w)
	wasDirty = c.dirty[base+w]
	c.tags[base+w] = tag
	c.dirty[base+w] = write
	return false, wasDirty
}

// accessStamp is the access probe for ways > 16, using per-way stamps.
func (c *cache) accessStamp(tag uint64, write bool) (hit, wasDirty bool) {
	set := (tag - 1) & c.setMask
	base := set * uint64(c.ways)
	n := uint64(c.used[set])
	occ := c.tags[base : base+n : base+n]
	for i, t := range occ {
		if t == tag {
			c.stamp++
			c.lru[base+uint64(i)] = c.stamp
			if write {
				c.dirty[base+uint64(i)] = true
			}
			return true, false
		}
	}
	if int(n) < c.ways {
		c.used[set] = int32(n) + 1
		c.stamp++
		c.tags[base+n] = tag
		c.lru[base+n] = c.stamp
		c.dirty[base+n] = write
		return false, false
	}
	hi := base + uint64(c.ways)
	lru := c.lru[base:hi:hi]
	w := 0
	victimStamp := lru[0]
	for i := 1; i < len(lru); i++ {
		if lru[i] < victimStamp {
			victimStamp = lru[i]
			w = i
		}
	}
	wasDirty = c.dirty[base+uint64(w)]
	c.stamp++
	c.tags[base+uint64(w)] = tag
	lru[w] = c.stamp
	c.dirty[base+uint64(w)] = write
	return false, wasDirty
}

// touch makes an occupied way the most recent in its set.
func (c *cache) touch(set uint64, way int) {
	if c.order != nil {
		word := c.order[set]
		wi := uint64(way)
		p := 0
		for (word>>uint(4*p))&0xF != wi {
			p++
		}
		if p != 0 {
			c.order[set] = promote(word, p, wi)
		}
		return
	}
	c.stamp++
	c.lru[set*uint64(c.ways)+uint64(way)] = c.stamp
}

// lookup probes the cache; on hit it refreshes recency and returns true.
func (c *cache) lookup(addr uint64) bool {
	ln := c.line(addr) + 1
	set := (ln - 1) & c.setMask
	base := set * uint64(c.ways)
	n := uint64(c.used[set])
	for w := uint64(0); w < n; w++ {
		if c.tags[base+w] == ln {
			c.touch(set, int(w))
			return true
		}
	}
	return false
}

// contains probes without disturbing recency state (used by the §4.1
// cache-presence probe, which must not behave like a touch).
func (c *cache) contains(addr uint64) bool {
	return c.containsTag(c.line(addr) + 1)
}

// containsTag is the tag-keyed form of contains, for callers (the
// shared-LLC banks) whose key space is not a byte address. tag is a
// line index plus one, as stored in the tag array. Read-only: no
// recency update, safe for concurrent readers between commits.
func (c *cache) containsTag(tag uint64) bool {
	base := ((tag - 1) & c.setMask) * uint64(c.ways)
	tags := c.tags[base : base+uint64(c.ways)]
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}

// install fills the line, evicting the LRU way if needed. Returns the
// evicted line address, whether an eviction happened, and whether the
// victim was dirty (needs writing back). The hot path uses the fused
// access probe instead; install remains for tests that assert on victim
// identity.
func (c *cache) install(addr uint64) (evicted uint64, didEvict, wasDirty bool) {
	ln := c.line(addr) + 1
	set := (ln - 1) & c.setMask
	base := set * uint64(c.ways)
	n := uint64(c.used[set])
	for w := uint64(0); w < n; w++ {
		if c.tags[base+w] == ln { // already present
			c.touch(set, int(w))
			return 0, false, false
		}
	}
	if int(n) < c.ways { // free way
		c.used[set] = int32(n) + 1
		if c.order != nil {
			c.order[set] = c.order[set]<<4 | n
		} else {
			c.stamp++
			c.lru[base+n] = c.stamp
		}
		c.tags[base+n] = ln
		c.dirty[base+n] = false
		return 0, false, false
	}
	w := uint64(c.evictWay(set))
	old := c.tags[base+w] - 1
	d := c.dirty[base+w]
	c.tags[base+w] = ln
	c.dirty[base+w] = false
	return old << c.lineBits, true, d
}

// evictWay selects the LRU victim of a full set and makes it the most
// recent (the caller installs over it).
func (c *cache) evictWay(set uint64) int {
	if c.order != nil {
		word := c.order[set]
		p := c.ways - 1
		w := (word >> uint(4*p)) & 0xF
		c.order[set] = promote(word, p, w)
		return int(w)
	}
	base := set * uint64(c.ways)
	w := 0
	victimStamp := c.lru[base]
	for i := 1; i < c.ways; i++ {
		if c.lru[base+uint64(i)] < victimStamp {
			victimStamp = c.lru[base+uint64(i)]
			w = i
		}
	}
	c.stamp++
	c.lru[base+uint64(w)] = c.stamp
	return w
}

// markDirty flags a resident line as modified; no-op when absent.
func (c *cache) markDirty(addr uint64) {
	ln := c.line(addr) + 1
	base := ((ln - 1) & c.setMask) * uint64(c.ways)
	tags := c.tags[base : base+uint64(c.ways)]
	for w, t := range tags {
		if t == ln {
			c.dirty[base+uint64(w)] = true
			return
		}
	}
}

// flush invalidates every line.
func (c *cache) flush() {
	for i := range c.tags {
		c.tags[i] = 0
		c.dirty[i] = false
	}
	for i := range c.used {
		c.used[i] = 0
	}
	for i := range c.order {
		c.order[i] = 0
	}
	for i := range c.lru {
		c.lru[i] = 0
	}
	c.stamp = 0
}
