// Package mem provides the simulator's memory subsystem: a sparse functional
// backing store holding architectural data values, and (in the timing files)
// the cache hierarchy, MSHRs, prefetchers and DRAM model from Table 1 of the
// paper.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"sort"
	"sync/atomic"

	"loopfrog/internal/asm"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse, byte-addressed 64-bit functional memory. It holds the
// architectural memory state of a simulation; speculative threadlet state
// lives in the SSB and is merged in only at threadlet commit. Unwritten
// memory reads as zero.
//
// Pages are copy-on-write: Clone shares every page with its source, and a
// Memory writes in place only to the pages it owns. The first write to any
// other page copies it and owns the copy. Memory is not safe for concurrent
// use, with one exception: a Memory that owns no pages (a clone nothing has
// written since) is never mutated by Clone or a read, so any number of
// goroutines may read and clone it at once.
type Memory struct {
	pages map[uint64]pageRef
	// id marks the pages this Memory owns: those whose pageRef.owner is id.
	id uint64
	// owns records whether any page carries id, so that Clone of an image
	// with nothing to disown leaves it untouched.
	owns bool
}

// pageRef is one page-table entry. owner is the id of the only Memory that
// may write data in place; every other Memory sharing data copies it first.
type pageRef struct {
	data  *[pageSize]byte
	owner uint64
}

// memIDs hands out Memory ids, starting at 1.
var memIDs atomic.Uint64

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]pageRef), id: memIDs.Add(1)}
}

// zeroPage is what an absent page reads as.
var zeroPage [pageSize]byte

// LoadProgram initialises memory with the program's data segment. Unlike
// WriteBytes it builds no page the segment leaves all zero: an absent page
// reads as zero already, so such a page is only built by the first write
// to it. Large zero-initialised arrays therefore cost nothing to load.
func (m *Memory) LoadProgram(p *asm.Program) {
	addr, data := p.DataBase, p.Data
	for len(data) > 0 {
		n := min(len(data), pageSize-int(addr&pageMask))
		if _, ok := m.pages[addr>>pageShift]; ok || !bytes.Equal(data[:n], zeroPage[:n]) {
			m.WriteBytes(addr, data[:n])
		}
		addr += uint64(n)
		data = data[n:]
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice, one page at
// a time.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for done := 0; done < n; {
		page, off := m.page(addr+uint64(done), false)
		k := min(n-done, pageSize-int(off))
		if page != nil {
			copy(out[done:done+k], page[off:])
		}
		done += k
	}
	return out
}

// WriteBytes writes p starting at addr, one page at a time. Every page the
// range touches exists afterwards, even where p holds only zeros (only
// LoadProgram skips all-zero pages).
func (m *Memory) WriteBytes(addr uint64, p []byte) {
	for len(p) > 0 {
		page, off := m.page(addr, true)
		n := copy(page[off:], p)
		p = p[n:]
		addr += uint64(n)
	}
}

// Read returns size bytes at addr as a little-endian uint64 (zero-padded).
// size must be 1, 2, 4 or 8 and the access must be naturally aligned.
func (m *Memory) Read(addr uint64, size int) uint64 {
	checkAccess(addr, size)
	page, off := m.page(addr, false)
	if page == nil {
		return 0
	}
	switch size {
	case 1:
		return uint64(page[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(page[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(page[off:]))
	default:
		return binary.LittleEndian.Uint64(page[off:])
	}
}

// ReadAny returns size bytes at addr as a little-endian uint64 like Read but
// tolerates unaligned addresses (wrong-path speculative loads can compute
// arbitrary addresses); aligned accesses take the single-page fast path.
func (m *Memory) ReadAny(addr uint64, size int) uint64 {
	if addr&uint64(size-1) == 0 {
		return m.Read(addr, size)
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.readByte(addr+uint64(i)))
	}
	return v
}

// Write stores the low size bytes of v at addr, little-endian. size must be
// 1, 2, 4 or 8 and the access must be naturally aligned.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	checkAccess(addr, size)
	page, off := m.page(addr, true)
	switch size {
	case 1:
		page[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(page[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(page[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(page[off:], v)
	}
}

// Fault describes an architecturally invalid memory access: a bad size or an
// unaligned address reaching an aligned-only access path. The timing core
// turns it into a job-level error (a bad program), while direct misuse of the
// aligned Read/Write API still panics.
type Fault struct {
	Addr uint64
	Size int
	// Unaligned distinguishes misalignment from an invalid access size.
	Unaligned bool
}

func (f *Fault) Error() string {
	if f.Unaligned {
		return fmt.Sprintf("mem: unaligned %d-byte access at %#x", f.Size, f.Addr)
	}
	return fmt.Sprintf("mem: bad access size %d at %#x", f.Size, f.Addr)
}

// ValidateAccess reports whether an access is naturally aligned with a legal
// size, returning a *Fault describing the violation otherwise. Callers that
// route program errors instead of crashing check this before using the
// aligned Read/Write entry points.
func ValidateAccess(addr uint64, size int) error {
	switch size {
	case 1, 2, 4, 8:
	default:
		return &Fault{Addr: addr, Size: size}
	}
	if addr&uint64(size-1) != 0 {
		return &Fault{Addr: addr, Size: size, Unaligned: true}
	}
	return nil
}

func checkAccess(addr uint64, size int) {
	if err := ValidateAccess(addr, size); err != nil {
		panic(err.Error())
	}
}

func (m *Memory) readByte(addr uint64) byte {
	page, off := m.page(addr, false)
	if page == nil {
		return 0
	}
	return page[off]
}

// page returns the page holding addr and addr's offset in it. A read
// (create=false) returns nil for an absent page. A write (create=true)
// always returns a page m owns: an absent page is created, and a shared one
// is copied first.
func (m *Memory) page(addr uint64, create bool) (*[pageSize]byte, uint64) {
	pn := addr >> pageShift
	r := m.pages[pn]
	if create && r.owner != m.id {
		p := new([pageSize]byte)
		if r.data != nil {
			*p = *r.data
		}
		r = pageRef{data: p, owner: m.id}
		m.pages[pn] = r
		m.owns = true
	}
	return r.data, addr & pageMask
}

// Clone returns an independent copy of the memory. It copies only the page
// table: afterwards the two share every page and neither owns any, so the
// first write on either side to a page copies that page. Cloning a Memory
// that owns no pages does not modify it (see Memory).
func (m *Memory) Clone() *Memory {
	if m.owns {
		m.id, m.owns = memIDs.Add(1), false
	}
	return &Memory{pages: maps.Clone(m.pages), id: memIDs.Add(1)}
}

// Equal reports whether two memories hold identical contents (treating
// absent pages as zero-filled).
func (m *Memory) Equal(o *Memory) bool {
	return m.diff(o) == ""
}

// Diff returns a human-readable description of the first few differing
// locations between two memories, or "" if they are equal. Intended for
// test failure messages.
func (m *Memory) Diff(o *Memory) string { return m.diff(o) }

func (m *Memory) diff(o *Memory) string {
	seen := make(map[uint64]bool)
	for pn := range m.pages {
		seen[pn] = true
	}
	for pn := range o.pages {
		seen[pn] = true
	}
	pns := make([]uint64, 0, len(seen))
	for pn := range seen {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	var out string
	count := 0
	for _, pn := range pns {
		a, b := m.pages[pn].data, o.pages[pn].data
		if a == b {
			continue
		}
		if a == nil {
			a = &zeroPage
		}
		if b == nil {
			b = &zeroPage
		}
		if *a == *b {
			continue
		}
		for off := 0; off < pageSize; off++ {
			if a[off] != b[off] {
				out += fmt.Sprintf("  %#x: %#02x != %#02x\n", pn<<pageShift|uint64(off), a[off], b[off])
				count++
				if count >= 16 {
					return out + "  ...\n"
				}
			}
		}
	}
	return out
}

// Footprint returns the number of resident pages, for stats and tests.
func (m *Memory) Footprint() int { return len(m.pages) }
