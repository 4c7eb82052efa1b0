package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// flatMemory is the reference backing store: one zeroed slice of the full
// architectural size, with the accessors Memory had before it was backed
// on demand. FuzzMemoryVsFlat holds the chunked store to it.
type flatMemory struct {
	data []byte
	brk  uint64
}

func newFlatMemory(size uint64) *flatMemory {
	if size < 128 {
		size = 128
	}
	return &flatMemory{data: make([]byte, size), brk: 64}
}

func (m *flatMemory) Alloc(n, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	base := (m.brk + align - 1) &^ (align - 1)
	if base+n > uint64(len(m.data)) {
		panic(fmt.Sprintf("mem: out of simulated memory (want %d bytes at %#x, have %d)", n, base, len(m.data)))
	}
	m.brk = base + n
	return base
}

func (m *flatMemory) inBounds(addr uint64) bool {
	return addr >= 8 && addr <= uint64(len(m.data))-8
}

func (m *flatMemory) fault(kind string, addr uint64) error {
	return fmt.Errorf("mem: %s fault at %#x (store size %#x)", kind, addr, len(m.data))
}

func (m *flatMemory) Read64(addr uint64) (uint64, error) {
	if m.inBounds(addr) {
		return binary.LittleEndian.Uint64(m.data[addr:]), nil
	}
	return 0, m.fault("load", addr)
}

func (m *flatMemory) Write64(addr, v uint64) error {
	if m.inBounds(addr) {
		binary.LittleEndian.PutUint64(m.data[addr:], v)
		return nil
	}
	return m.fault("store", addr)
}

// opReader decodes a fuzz input into operands; an exhausted input reads
// as zeros.
type opReader struct{ b []byte }

func (r *opReader) u8() uint64 {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return uint64(v)
}

func (r *opReader) u32() uint64 { return r.u8() | r.u8()<<8 | r.u8()<<16 | r.u8()<<24 }

// addr picks an address from one of the classes where a chunked store
// can part ways with a flat one.
func (r *opReader) addr(size, brk uint64) uint64 {
	switch cls, x := r.u8()%9, r.u32(); cls {
	case 0: // aligned
		return x % size &^ 7
	case 1: // unaligned
		return x % size
	case 2: // straddling a chunk edge
		edge := (1 + x%(size>>chunkShift+1)) << chunkShift
		return edge - 1 - r.u8()%7
	case 3: // at or just past a chunk edge
		return (x%(size>>chunkShift+1))<<chunkShift + r.u8()%16
	case 4: // above brk
		return brk + x%4096
	case 5: // null page
		return x % 8
	case 6: // last valid word
		return size - 8
	case 7: // past the last valid word
		return size - 8 + 1 + x%64
	default: // anywhere in the address space
		return x<<32 | r.u32()
	}
}

// catch runs f and returns the text of any panic it raises.
func catch(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkContents compares m with the flat image want, and checks the chunk
// invariant on the way: every written chunk but a short last one is
// chunkSize long.
func checkContents(t *testing.T, m *Memory, want []byte) {
	for c, p := range m.chunks {
		base := uint64(c) << chunkShift
		w := want[base : base+min(chunkSize, m.Size()-base)]
		if p == nil {
			if !bytes.Equal(w, make([]byte, len(w))) {
				t.Fatalf("chunk %d is unwritten, but the flat store holds data there", c)
			}
			continue
		}
		if len(p) != len(w) {
			t.Fatalf("chunk %d has length %d, want %d", c, len(p), len(w))
		}
		if !bytes.Equal(p, w) {
			t.Fatalf("chunk %d differs from the flat store", c)
		}
	}
}

func writtenChunks(m *Memory) int {
	n := 0
	for _, p := range m.chunks {
		if p != nil {
			n++
		}
	}
	return n
}

// FuzzMemoryVsFlat replays a random stream of Alloc, Read64, Write64,
// MustRead64 and MustWrite64 against the on-demand store and the flat
// reference, and demands equal values, equal error and panic text, equal
// Size and Brk after every operation, and equal Snapshot and contents
// at the end. The caps are a few chunks long, and one of them ends
// mid-chunk, so chunk edges and a short last chunk come up often. Reads
// must not allocate chunks.
func FuzzMemoryVsFlat(f *testing.F) {
	f.Add([]byte{0, 2, 1, 0, 0, 0, 3, 0, 0xff, 0xff, 0xff, 0xff, 0xaa})
	f.Add([]byte{1, 3, 2, 1, 0, 0, 0, 2, 2, 2, 1, 0, 0, 0, 2, 0x55})
	f.Add([]byte{2, 0, 0xff, 0xff, 0x0f, 0, 6, 3, 6, 0, 0, 0, 0, 1, 7, 9, 0, 0, 0})
	f.Add([]byte{0, 4, 5, 3, 0, 0, 0, 9, 1, 8, 1, 2, 3, 4, 2, 2, 4, 1, 0, 0, 0, 3})
	f.Add([]byte{0, 2, 8, 0xff, 0xff, 0xff, 0xff, 0xf8, 0xff, 0xff, 0xff, 1, 1, 8, 0xff, 0xff, 0xff, 0xff, 0xfc, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := &opReader{b: in}
		size := []uint64{3 << 20, 3<<20 - 24, 2<<20 + 13}[r.u8()%3]
		m, ref := NewMemory(size), newFlatMemory(size)
		for op := 0; len(r.b) > 0; op++ {
			chunksBefore := writtenChunks(m)
			read := false
			var got, want string
			switch r.u8() % 5 {
			case 0:
				n := r.u32() % (size / 2)
				align := uint64(1) << (r.u8() % 8)
				if r.u8()%16 == 0 {
					align = 3 // not a power of two
				}
				var a, b uint64
				got = catch(func() { a = m.Alloc(n, align) })
				want = catch(func() { b = ref.Alloc(n, align) })
				got, want = fmt.Sprint(got, a), fmt.Sprint(want, b)
			case 1:
				read = true
				addr := r.addr(size, ref.brk)
				v, err := m.Read64(addr)
				w, werr := ref.Read64(addr)
				got, want = fmt.Sprint(v, errText(err)), fmt.Sprint(w, errText(werr))
			case 2:
				addr, v := r.addr(size, ref.brk), r.u32()<<32|r.u32()
				got, want = errText(m.Write64(addr, v)), errText(ref.Write64(addr, v))
			case 3:
				read = true
				addr := r.addr(size, ref.brk)
				var v uint64
				got = catch(func() { v = m.MustRead64(addr) })
				w, err := ref.Read64(addr)
				got, want = fmt.Sprint(got, v), fmt.Sprint(errText(err), w)
			case 4:
				addr, v := r.addr(size, ref.brk), r.u32()
				got = catch(func() { m.MustWrite64(addr, v) })
				want = errText(ref.Write64(addr, v))
			}
			if got != want {
				t.Fatalf("op %d: on-demand store gives %q, flat store %q", op, got, want)
			}
			if m.Size() != uint64(len(ref.data)) || m.Brk() != ref.brk {
				t.Fatalf("op %d: Size/Brk = %d/%d, flat store %d/%d", op, m.Size(), m.Brk(), len(ref.data), ref.brk)
			}
			if read && writtenChunks(m) != chunksBefore {
				t.Fatalf("op %d: a read allocated a chunk", op)
			}
		}
		if !bytes.Equal(m.Snapshot(), ref.data[:ref.brk]) {
			t.Fatal("Snapshot differs from the flat store")
		}
		checkContents(t, m, ref.data)
	})
}

// TestMemoryChunkEdges pins the cases FuzzMemoryVsFlat explores, without
// the fuzzer: words straddling a chunk edge, the last word of a cap that
// ends mid-chunk, an address whose word would wrap past 2^64, and reads
// of memory nobody has written.
func TestMemoryChunkEdges(t *testing.T) {
	const size = 2<<20 + 13
	m, ref := NewMemory(size), newFlatMemory(size)
	step := func(addr, v uint64) {
		t.Helper()
		if got, want := errText(m.Write64(addr, v)), errText(ref.Write64(addr, v)); got != want {
			t.Fatalf("Write64(%#x) = %q, flat store %q", addr, got, want)
		}
		for _, a := range []uint64{addr - 4, addr, addr + 4} {
			got, gerr := m.Read64(a)
			want, werr := ref.Read64(a)
			if got != want || errText(gerr) != errText(werr) {
				t.Fatalf("Read64(%#x) = %#x, %q; flat store %#x, %q", a, got, errText(gerr), want, errText(werr))
			}
		}
	}
	if v, err := m.Read64(chunkSize + 64); v != 0 || err != nil || writtenChunks(m) != 0 {
		t.Fatalf("read of unwritten memory = %#x, %v with %d chunks written, want 0, nil, 0", v, err, writtenChunks(m))
	}
	step(chunkSize-3, 0x0102030405060708)   // straddles chunks 0 and 1
	step(2*chunkSize-8, 0x1112131415161718) // last word of chunk 1
	step(size-8, 0x2122232425262728)        // last word of the short last chunk
	step(size-7, 1)                         // one byte past the cap
	step(4, 1)                              // null page
	step(1<<64-8, 1)                        // last word of the address space
	if err, want := m.Write64(1<<64-8, 1), "mem: store fault at 0xfffffffffffffff8 (store size 0x20000d)"; errText(err) != want {
		t.Fatalf("Write64 at the top of the address space = %q, want %q", errText(err), want)
	}
	if writtenChunks(m) != 3 {
		t.Fatalf("%d chunks written, want 3", writtenChunks(m))
	}
	m.Alloc(size-m.Brk(), 1)
	ref.Alloc(size-ref.brk, 1)
	if !bytes.Equal(m.Snapshot(), ref.data) {
		t.Fatal("Snapshot differs from the flat store")
	}
	checkContents(t, m, ref.data)
}
