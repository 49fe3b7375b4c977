package mem

import (
	"testing"
	"testing/quick"

	"loopfrog/internal/asm"
)

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	if got := m.Read(0x1234560, 8); got != 0 {
		t.Errorf("unwritten memory reads %#x, want 0", got)
	}
	if got := m.Footprint(); got != 0 {
		t.Errorf("read allocated %d pages, want 0", got)
	}
}

func TestMemoryReadWriteSizes(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 8, 0x1122334455667788)
	cases := []struct {
		addr uint64
		size int
		want uint64
	}{
		{0x1000, 1, 0x88},
		{0x1001, 1, 0x77},
		{0x1000, 2, 0x7788},
		{0x1002, 2, 0x5566},
		{0x1000, 4, 0x55667788},
		{0x1004, 4, 0x11223344},
		{0x1000, 8, 0x1122334455667788},
	}
	for _, c := range cases {
		if got := m.Read(c.addr, c.size); got != c.want {
			t.Errorf("Read(%#x, %d) = %#x, want %#x", c.addr, c.size, got, c.want)
		}
	}
	m.Write(0x1002, 2, 0xaabb)
	if got := m.Read(0x1000, 8); got != 0x11223344aabb7788 {
		t.Errorf("merged read = %#x, want 0x11223344aabb7788", got)
	}
}

func TestMemoryCrossPageBytes(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3)
	payload := []byte{1, 2, 3, 4, 5, 6}
	m.WriteBytes(addr, payload)
	got := m.ReadBytes(addr, len(payload))
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], payload[i])
		}
	}
	if m.Footprint() != 2 {
		t.Errorf("footprint = %d, want 2 pages", m.Footprint())
	}
}

// TestMemoryBytesSpanPages checks the page-at-a-time byte copies over a
// range spanning several pages, and reads that cross unwritten pages.
func TestMemoryBytesSpanPages(t *testing.T) {
	m := NewMemory()
	addr := uint64(5*pageSize - 7)
	payload := make([]byte, 3*pageSize+11)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	m.WriteBytes(addr, payload)
	if m.Footprint() != 5 {
		t.Errorf("footprint = %d, want 5 pages", m.Footprint())
	}
	got := m.ReadBytes(addr, len(payload))
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], payload[i])
		}
	}
	// From two pages before the payload into its first bytes: zeros, then
	// the payload, without creating pages.
	got = m.ReadBytes(addr-2*pageSize, 2*pageSize+3)
	for i, b := range got {
		want := byte(0)
		if i >= 2*pageSize {
			want = payload[i-2*pageSize]
		}
		if b != want {
			t.Fatalf("byte %d = %d, want %d", i, b, want)
		}
	}
	if m.Footprint() != 5 {
		t.Errorf("ReadBytes created pages: footprint = %d, want 5", m.Footprint())
	}
}

func TestMemoryAlignmentPanics(t *testing.T) {
	m := NewMemory()
	for _, c := range []struct {
		addr uint64
		size int
	}{{1, 2}, {2, 4}, {4, 8}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Read(%#x, %d) did not panic", c.addr, c.size)
				}
			}()
			m.Read(c.addr, c.size)
		}()
	}
}

func TestMemoryCloneIsDeep(t *testing.T) {
	m := NewMemory()
	m.Write(0x100, 8, 42)
	c := m.Clone()
	m.Write(0x100, 8, 43)
	if got := c.Read(0x100, 8); got != 42 {
		t.Errorf("clone observed mutation: %d", got)
	}
	if m.Equal(c) {
		t.Error("Equal reports true after divergence")
	}
}

func TestMemoryEqualTreatsAbsentAsZero(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	b.Write(0x5000, 8, 0) // allocates a page full of zeros
	if !a.Equal(b) {
		t.Errorf("zero page != absent page:\n%s", a.Diff(b))
	}
	b.Write(0x5000, 1, 7)
	if a.Equal(b) {
		t.Error("Equal missed a real difference")
	}
	if d := a.Diff(b); d == "" {
		t.Error("Diff returned empty for differing memories")
	}
}

func TestMemoryLoadProgram(t *testing.T) {
	p := asm.MustAssemble("t", `
        .data
v:      .quad 0xdeadbeef
        .text
main:   halt
`)
	m := NewMemory()
	m.LoadProgram(p)
	if got := m.Read(p.MustSymbol("v"), 8); got != 0xdeadbeef {
		t.Errorf("loaded data = %#x, want 0xdeadbeef", got)
	}
}

func TestMemoryReadWriteProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, sizeSel uint8, v uint64) bool {
		size := 1 << (sizeSel % 4)
		addr &^= uint64(size - 1) // align
		addr %= 1 << 40           // keep the page map small-ish
		m.Write(addr, size, v)
		want := v
		if size < 8 {
			want = v & (1<<(8*size) - 1)
		}
		return m.Read(addr, size) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
