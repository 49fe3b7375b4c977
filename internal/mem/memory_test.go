package mem

import (
	"runtime"
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

// sharedPages counts the pages a and b hold as the same physical page.
func sharedPages(a, b *Memory) int {
	n := 0
	for pn, r := range a.pages {
		if b.pages[pn].data == r.data {
			n++
		}
	}
	return n
}

// filled returns a memory with n consecutive pages; page i holds i+1 in its
// first word.
func filled(n int) *Memory {
	m := NewMemory()
	for i := 0; i < n; i++ {
		m.Write(uint64(i)<<pageShift, 8, uint64(i)+1)
	}
	return m
}

func TestMemoryCloneWriteToClone(t *testing.T) {
	m := filled(4)
	c := m.Clone()
	c.Write(2<<pageShift, 8, 99)
	c.Write(3<<pageShift|8, 4, 7)
	if got := m.Read(2<<pageShift, 8); got != 3 {
		t.Errorf("source observed the clone's write: %d", got)
	}
	if got := m.Read(3<<pageShift|8, 4); got != 0 {
		t.Errorf("source observed the clone's write: %d", got)
	}
	if got := c.Read(2<<pageShift, 8); got != 99 {
		t.Errorf("clone lost its own write: %d", got)
	}
	if got := c.Read(3<<pageShift, 8); got != 4 {
		t.Errorf("copied page lost the shared contents: %d", got)
	}
}

func TestMemoryCloneWriteToSource(t *testing.T) {
	m := filled(4)
	c := m.Clone()
	m.Write(1<<pageShift, 8, 50)
	if got := c.Read(1<<pageShift, 8); got != 2 {
		t.Errorf("clone observed the source's write: %d", got)
	}
	// A second write lands on the page the source now owns again.
	m.Write(1<<pageShift|16, 8, 51)
	if got := c.Read(1<<pageShift|16, 8); got != 0 {
		t.Errorf("clone observed the source's second write: %d", got)
	}
	if got := m.Read(1<<pageShift, 8); got != 50 {
		t.Errorf("source lost its first write: %d", got)
	}
}

func TestMemoryCloneOfClone(t *testing.T) {
	m := filled(3)
	c1 := m.Clone()
	c1.Write(0, 8, 10)
	c2 := c1.Clone()
	c2.Write(0, 8, 20)
	c1.Write(1<<pageShift, 8, 11)
	m.Write(2<<pageShift, 8, 30)
	want := []struct {
		mem        *Memory
		p0, p1, p2 uint64
	}{
		{m, 1, 2, 30},
		{c1, 10, 11, 3},
		{c2, 20, 2, 3},
	}
	for i, w := range want {
		for pn, v := range []uint64{w.p0, w.p1, w.p2} {
			if got := w.mem.Read(uint64(pn)<<pageShift, 8); got != v {
				t.Errorf("memory %d page %d = %d, want %d", i, pn, got, v)
			}
		}
	}
}

func TestMemoryCloneNewPage(t *testing.T) {
	m := filled(1)
	c := m.Clone()
	c.Write(9<<pageShift, 8, 5)
	m.Write(7<<pageShift, 8, 6)
	if m.Footprint() != 2 || c.Footprint() != 2 {
		t.Errorf("footprints = %d, %d, want 2, 2", m.Footprint(), c.Footprint())
	}
	if got := m.Read(9<<pageShift, 8); got != 0 {
		t.Errorf("source sees the clone's new page: %d", got)
	}
	if got := c.Read(7<<pageShift, 8); got != 0 {
		t.Errorf("clone sees the source's new page: %d", got)
	}
}

func TestMemoryCloneWriteBytesAcrossSharedPages(t *testing.T) {
	m := filled(3)
	c := m.Clone()
	addr := uint64(2<<pageShift - 4)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	before := string(m.ReadBytes(addr, len(payload)))
	c.WriteBytes(addr, payload)
	got := c.ReadBytes(addr, len(payload))
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("clone byte %d = %d, want %d", i, got[i], payload[i])
		}
	}
	if got := m.ReadBytes(addr, len(payload)); string(got) != before {
		t.Errorf("source observed WriteBytes: %v", got)
	}
	if n := sharedPages(m, c); n != 1 {
		t.Errorf("%d pages still shared, want 1 (pages 1 and 2 copied)", n)
	}
}

func TestMemoryCloneEqualDiffFootprint(t *testing.T) {
	m := filled(5)
	c := m.Clone()
	if !m.Equal(c) || m.Diff(c) != "" || c.Footprint() != m.Footprint() {
		t.Fatalf("fresh clone differs: footprints %d, %d\n%s", m.Footprint(), c.Footprint(), m.Diff(c))
	}
	c.Write(3<<pageShift, 8, 4) // a copied page with unchanged contents
	if !m.Equal(c) {
		t.Errorf("a copied but unchanged page compares unequal:\n%s", m.Diff(c))
	}
	c.Write(3<<pageShift|40, 1, 0xab)
	d := m.Diff(c)
	if m.Equal(c) || d != "  0x3028: 0x00 != 0xab\n" {
		t.Errorf("Diff after divergence = %q", d)
	}
	if c.Footprint() != 5 {
		t.Errorf("clone footprint = %d, want 5", c.Footprint())
	}
}

// TestMemoryCloneCost checks that Clone copies a page table, not pages, and
// that the first write to a shared page copies exactly that page.
func TestMemoryCloneCost(t *testing.T) {
	const pages = 1024
	m := filled(pages)
	m.Clone() // the source stops owning its pages; later clones leave it alone
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() { m.Clone() })
	runtime.ReadMemStats(&after)
	perClone := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up run
	if perClone >= 256<<10 {
		t.Errorf("Clone of %d pages allocates %d KiB, want < 256 KiB", pages, perClone>>10)
	}
	t.Logf("Clone of %d pages: %.0f allocs, %d KiB", pages, allocs, perClone>>10)

	c := m.Clone()
	if n := sharedPages(m, c); n != pages {
		t.Fatalf("fresh clone shares %d pages, want %d", n, pages)
	}
	c.Write(17<<pageShift|8, 8, 1)
	if n := sharedPages(m, c); n != pages-1 {
		t.Errorf("after one write %d pages shared, want %d", n, pages-1)
	}
	c.Write(17<<pageShift|16, 8, 2)
	if n := sharedPages(m, c); n != pages-1 {
		t.Errorf("a second write to the copied page copied again: %d shared", n)
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
