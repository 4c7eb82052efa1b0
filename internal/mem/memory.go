// Package mem simulates the machine's memory system: a byte-addressed
// backing store with a bump allocator, and a three-level set-associative
// cache hierarchy with in-flight fill tracking.
//
// The in-flight fill table is the heart of the paper's mechanism: a
// PREFETCH starts an asynchronous fill whose completion timestamp is
// recorded; a later LOAD of the same line pays only the residual latency
// max(0, completion-now). Interleaving coroutine execution between the
// prefetch and the load is therefore genuinely what hides the miss.
package mem

import (
	"encoding/binary"
	"fmt"
)

// The backing store is an index of fixed-size chunks, each allocated on
// the first write that lands in it and never copied afterwards.
const (
	chunkShift = 20
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// Memory is the simulated backing store. Addresses are byte offsets.
// Address 0 is kept unmapped so that null-pointer chases fault loudly.
//
// The architectural size is a cap, not a cost: host memory is spent only
// on the chunks a program has written. An unwritten chunk is nil and
// reads as zeros. Every written chunk is chunkSize bytes long except the
// last, which ends at the architectural size, so the fast paths' single
// length check sends chunk straddles, unwritten chunks and accesses past
// the end to the slow paths.
type Memory struct {
	chunks [][]byte
	size   uint64
	brk    uint64 // bump-allocation watermark
}

// NewMemory creates a backing store of the given size in bytes. The first
// 64 bytes are reserved (never allocated) so address 0 stays invalid.
func NewMemory(size uint64) *Memory {
	if size < 128 {
		size = 128
	}
	n := (size + chunkMask) >> chunkShift
	return &Memory{chunks: make([][]byte, n), size: size, brk: 64}
}

// chunkLen is the length of chunk c.
func (m *Memory) chunkLen(c uint64) uint64 { return min(chunkSize, m.size-c<<chunkShift) }

// Size returns the architectural size of the store in bytes, however
// little of it is backed.
func (m *Memory) Size() uint64 { return m.size }

// Brk returns the current allocation watermark.
func (m *Memory) Brk() uint64 { return m.brk }

// Alloc reserves n bytes aligned to align (a power of two) and returns the
// base address. It panics if the store is exhausted — workload construction
// bugs should fail fast.
func (m *Memory) Alloc(n, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	base := (m.brk + align - 1) &^ (align - 1)
	if base+n > m.size {
		panic(fmt.Sprintf("mem: out of simulated memory (want %d bytes at %#x, have %d)", n, base, m.size))
	}
	m.brk = base + n
	return base
}

// InBounds reports whether an 8-byte access at addr is valid.
func (m *Memory) InBounds(addr uint64) bool {
	return addr >= 8 && addr <= m.size-8
}

// Read64 loads the 8-byte little-endian word at addr. The fast path
// serves a word inside one written chunk; unwritten chunks, straddles
// and faults take the outlined slow path. Read64 and Write64 are too
// large to inline.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	if c := addr >> chunkShift; c < uint64(len(m.chunks)) && addr >= 8 {
		p := m.chunks[c]
		if off := int(addr & chunkMask); off < len(p)-7 {
			return binary.LittleEndian.Uint64(p[off:]), nil
		}
	}
	return m.read64Slow(addr)
}

// Write64 stores the 8-byte little-endian word v at addr. The fast path
// serves a word inside one written chunk; first writes to a chunk,
// straddles and faults take the outlined slow path.
func (m *Memory) Write64(addr, v uint64) error {
	if c := addr >> chunkShift; c < uint64(len(m.chunks)) && addr >= 8 {
		p := m.chunks[c]
		if off := int(addr & chunkMask); off < len(p)-7 {
			binary.LittleEndian.PutUint64(p[off:], v)
			return nil
		}
	}
	return m.write64Slow(addr, v)
}

// read64Slow assembles the word byte by byte, so a read that straddles
// two chunks or touches an unwritten one sees exactly the bytes a flat
// store would hold.
//
//go:noinline
func (m *Memory) read64Slow(addr uint64) (uint64, error) {
	if !m.InBounds(addr) {
		return 0, m.fault("load", addr)
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		a := addr + i
		if p := m.chunks[a>>chunkShift]; p != nil {
			v |= uint64(p[a&chunkMask]) << (8 * i)
		}
	}
	return v, nil
}

// write64Slow allocates the chunks the word lands in, then stores it
// byte by byte.
//
//go:noinline
func (m *Memory) write64Slow(addr, v uint64) error {
	if !m.InBounds(addr) {
		return m.fault("store", addr)
	}
	for i := uint64(0); i < 8; i++ {
		a := addr + i
		c := a >> chunkShift
		if m.chunks[c] == nil {
			m.chunks[c] = make([]byte, m.chunkLen(c))
		}
		m.chunks[c][a&chunkMask] = byte(v >> (8 * i))
	}
	return nil
}

func (m *Memory) fault(kind string, addr uint64) error {
	return fmt.Errorf("mem: %s fault at %#x (store size %#x)", kind, addr, m.size)
}

// MustRead64 is Read64 for host-side data construction; it panics on fault.
func (m *Memory) MustRead64(addr uint64) uint64 {
	v, err := m.Read64(addr)
	if err != nil {
		panic(err)
	}
	return v
}

// MustWrite64 is Write64 for host-side data construction; it panics on
// fault.
func (m *Memory) MustWrite64(addr, v uint64) {
	if err := m.Write64(addr, v); err != nil {
		panic(err)
	}
}

// Snapshot returns a copy of the populated region of memory (up to the
// allocation watermark). Tests use it to compare architectural state across
// original and instrumented runs.
func (m *Memory) Snapshot() []byte {
	out := make([]byte, m.brk)
	for c, p := range m.chunks {
		if base := uint64(c) << chunkShift; base < m.brk {
			copy(out[base:], p)
		}
	}
	return out
}
