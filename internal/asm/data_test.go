package asm

import (
	"bytes"
	"testing"

	"loopfrog/internal/isa"
)

// dataProg assembles a one-instruction program whose data section is body.
func dataProg(t *testing.T, body string) *Program {
	t.Helper()
	p, err := Assemble("data", "        .data\n"+body+"\n        .text\nmain:   halt\n")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuilderMatchesAssemblerData checks that Builder and the assembler lay
// out interleaved .zero, .align and .quad directives alike: the same size,
// bytes, symbols and fingerprint.
func TestBuilderMatchesAssemblerData(t *testing.T) {
	asmP := dataProg(t, `
a:      .quad 1
        .zero 3
        .align 8
b:      .quad 0, 0x1122334455667788
        .zero 4096
        .align 16
c:      .quad 0
        .zero 5
        .align 8
d:      .quad -1
        .zero 8`)
	b := NewBuilder("data")
	b.Sym("a").Quad(1).Zero(3).Align(8)
	b.Sym("b").Quad(0, 0x1122334455667788).Zero(4096).Align(16)
	b.Sym("c").Quad(0).Zero(5).Align(8)
	b.Sym("d").Quad(^uint64(0)).Zero(8)
	b.Label("main").I(isa.Inst{Op: isa.HALT})
	built := b.MustBuild()

	if built.Data.Len() != asmP.Data.Len() {
		t.Fatalf("size: builder %d, assembler %d", built.Data.Len(), asmP.Data.Len())
	}
	if !bytes.Equal(built.Data.Bytes(), asmP.Data.Bytes()) {
		t.Errorf("bytes differ:\nbuilder   % x\nassembler % x", built.Data.Bytes(), asmP.Data.Bytes())
	}
	for _, s := range []string{"a", "b", "c", "d"} {
		if built.MustSymbol(s) != asmP.MustSymbol(s) {
			t.Errorf("symbol %s: builder %#x, assembler %#x", s, built.MustSymbol(s), asmP.MustSymbol(s))
		}
	}
	if built.Fingerprint() != asmP.Fingerprint() {
		t.Error("builder and assembler images hash differently")
	}
	if want := 8 + 3 + 5 + 16 + 4096 + 8 + 5 + 3 + 8 + 8; asmP.Data.Len() != want {
		t.Errorf("size %d, want %d", asmP.Data.Len(), want)
	}
}

// TestDataFingerprintCanonical checks that the fingerprint hashes a data
// segment's content, not how it was written: zeros written by .quad 0 and
// by .zero hash alike, and so do runs split differently. One flipped byte,
// or one more byte of size, hashes differently.
func TestDataFingerprintCanonical(t *testing.T) {
	fp := func(body string) string { return dataProg(t, body).Fingerprint() }
	same := [][2]string{
		{".zero 8", ".quad 0"},
		{".quad 1\n.zero 8\n.quad 2", ".quad 1, 0, 2"},
		{".byte 1, 0, 0, 2", ".byte 1\n.zero 2\n.byte 2"},
		{".zero 3\n.align 8\n.quad 5", ".byte 0, 0, 0\n.align 8\n.byte 5\n.zero 7"},
	}
	for _, c := range same {
		if fp(c[0]) != fp(c[1]) {
			t.Errorf("%q and %q hash differently", c[0], c[1])
		}
	}
	differ := [][2]string{
		{".quad 1\n.zero 8", ".quad 1\n.zero 9"},
		{".zero 8", ".zero 9"},
		{".quad 1, 2", ".quad 1, 3"},
		{".quad 0x100", ".quad 0x10000"},
		{".byte 1\n.zero 1\n.byte 1", ".byte 1, 1\n.zero 1"},
	}
	for _, c := range differ {
		if fp(c[0]) == fp(c[1]) {
			t.Errorf("%q and %q hash alike", c[0], c[1])
		}
	}
	b := NewBuilder("data")
	b.Bytes([]byte{0, 0, 7, 0, 9, 0, 0, 0}).Label("main").Halt()
	if got, want := b.MustBuild().Fingerprint(), fp(".zero 2\n.byte 7\n.zero 1\n.byte 9\n.zero 3"); got != want {
		t.Error("one Bytes run with zeros inside hashes unlike the same bytes written apart")
	}
}
