package asm

import (
	"bytes"
	"encoding/binary"
	"hash"
)

// DataImage is a program's initial data segment, held sparsely: its size,
// and the runs of nonzero data written into it. Every byte outside the runs
// is zero, so a large zero-initialised array costs only the size it adds.
// Builder and the assembler build an image through the same methods, which
// only append at the end of the segment; once in a Program an image is
// immutable.
type DataImage struct {
	size int
	runs []DataRun
}

// DataRun is one stretch of written bytes at offset Off of the segment.
// Runs are in increasing offset order, and a gap separates any two.
type DataRun struct {
	Off   int
	Bytes []byte
}

// Len returns the segment's size in bytes.
func (d *DataImage) Len() int { return d.size }

// Runs returns the written runs, oldest first. The caller must not modify
// them.
func (d *DataImage) Runs() []DataRun { return d.runs }

// Append writes p at the end of the segment. Bytes that are all zero only
// advance the size, as Zero does.
func (d *DataImage) Append(p []byte) {
	if allZero(p) {
		d.size += len(p)
		return
	}
	if n := len(d.runs); n > 0 && d.runs[n-1].Off+len(d.runs[n-1].Bytes) == d.size {
		d.runs[n-1].Bytes = append(d.runs[n-1].Bytes, p...)
	} else {
		d.runs = append(d.runs, DataRun{Off: d.size, Bytes: append([]byte(nil), p...)})
	}
	d.size += len(p)
}

// Zero appends n zero bytes.
func (d *DataImage) Zero(n int) { d.size += n }

// Align pads the segment with zeros to a multiple of n bytes.
func (d *DataImage) Align(n int) {
	if r := d.size % n; r != 0 {
		d.size += n - r
	}
}

// Bytes returns the whole segment as one fresh slice, zeros included. It
// costs the segment's size; tools and tests use it, loaders walk Runs.
func (d *DataImage) Bytes() []byte {
	out := make([]byte, d.size)
	for _, r := range d.runs {
		copy(out[r.Off:], r.Bytes)
	}
	return out
}

// hashTo writes the image to h canonically, in time proportional to the
// written bytes: the size, then each maximal stretch of nonzero bytes as its
// offset, length and bytes. Two images holding the same bytes hash alike
// however they were written (a .quad 0 and a .zero 8 included).
func (d *DataImage) hashTo(h hash.Hash) {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(d.size))
	h.Write(hdr[:8])
	for _, r := range d.runs {
		b := r.Bytes
		for i := 0; i < len(b); {
			if b[i] == 0 {
				i++
				continue
			}
			j := i + 1
			for j < len(b) && b[j] != 0 {
				j++
			}
			binary.LittleEndian.PutUint64(hdr[:8], uint64(r.Off+i))
			binary.LittleEndian.PutUint64(hdr[8:], uint64(j-i))
			h.Write(hdr[:])
			h.Write(b[i:j])
			i = j
		}
	}
}

var zeros [64]byte

// allZero reports whether p holds only zero bytes.
func allZero(p []byte) bool {
	for len(p) > 0 {
		n := min(len(p), len(zeros))
		if !bytes.Equal(p[:n], zeros[:n]) {
			return false
		}
		p = p[n:]
	}
	return true
}
