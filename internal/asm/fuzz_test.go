package asm_test

import (
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/guest"
)

// FuzzAssemble: the assembler reads foreign text (hftasm's input, a
// scenario's guest). No source may panic it or hold it for a second, and
// whatever it accepts fits MaxImageBytes. Seeded with the guest kernel —
// every directive, pseudo-instruction and expression form in use — and
// the three padding lines that once cost seconds and gigabytes each.
func FuzzAssemble(f *testing.F) {
	f.Add(guest.KernelSource)
	f.Add("\t.space 0x10000000\n")
	f.Add("\tnop\n\t.org 0x20000000\n")
	f.Add("\tnop\n\t.align 0x10000000\n")
	f.Add("\t.org 0x1000\n\t.equ N, (3+4)<<2\nl:\tli r1, %hi(l)|%lo(N)\n\t.byte 1, 'a'\n\t.asciz \"x\\n\"\n\t.space N\n\tb l\n")
	f.Fuzz(func(t *testing.T, src string) {
		start := time.Now()
		p, err := asm.Assemble("fuzz.s", src)
		if took := time.Since(start); took > time.Second {
			t.Fatalf("assembling %d bytes of source took %v", len(src), took)
		}
		if err == nil && len(p.Words)*4 > asm.MaxImageBytes {
			t.Fatalf("accepted an image of %d bytes", len(p.Words)*4)
		}
	})
}
