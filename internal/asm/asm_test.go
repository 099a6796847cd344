package asm

import (
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
)

func mustAsm(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble("test.s", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func decodeAt(t *testing.T, p *Program, idx int) isa.Inst {
	t.Helper()
	if idx >= len(p.Words) {
		t.Fatalf("program has %d words, want index %d", len(p.Words), idx)
	}
	in, err := isa.Decode(p.Words[idx])
	if err != nil {
		t.Fatalf("Decode(word %d = %08x): %v", idx, p.Words[idx], err)
	}
	return in
}

func TestBasicInstructions(t *testing.T) {
	p := mustAsm(t, `
		add r1, r2, r3
		addi r4, r5, -7
		ldw r6, 8(sp)
		stw r7, -4(r30)
		nop
	`)
	if len(p.Words) != 5 {
		t.Fatalf("len = %d, want 5", len(p.Words))
	}
	if in := decodeAt(t, p, 0); in != (isa.Inst{Op: isa.OpADD, Rd: 1, R1: 2, R2: 3}) {
		t.Errorf("word 0 = %v", in)
	}
	if in := decodeAt(t, p, 1); in != (isa.Inst{Op: isa.OpADDI, Rd: 4, R1: 5, Imm: -7}) {
		t.Errorf("word 1 = %v", in)
	}
	if in := decodeAt(t, p, 2); in != (isa.Inst{Op: isa.OpLDW, Rd: 6, R1: 30, Imm: 8}) {
		t.Errorf("word 2 = %v", in)
	}
	if in := decodeAt(t, p, 3); in != (isa.Inst{Op: isa.OpSTW, Rd: 7, R1: 30, Imm: -4}) {
		t.Errorf("word 3 = %v", in)
	}
	if in := decodeAt(t, p, 4); in.Op != isa.OpNOP {
		t.Errorf("word 4 = %v", in)
	}
}

func TestRegisterAliases(t *testing.T) {
	p := mustAsm(t, `
		mov ret0, arg0
		bv rp
	`)
	in := decodeAt(t, p, 0)
	if in.Op != isa.OpOR || in.Rd != isa.RegRet0 || in.R1 != isa.RegArg0 || in.R2 != 0 {
		t.Errorf("mov = %v", in)
	}
	if in := decodeAt(t, p, 1); in.Op != isa.OpBV || in.R1 != isa.RegRP {
		t.Errorf("bv = %v", in)
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAsm(t, `
	start:
		addi r1, r0, 10
	loop:
		addi r1, r1, -1
		bne r1, r0, loop
		b start
	`)
	// bne at word 2; loop at word 1: offset = (4 - (8+4))/4 = -2
	if in := decodeAt(t, p, 2); in.Op != isa.OpBNE || in.Imm != -2 {
		t.Errorf("bne = %v, want offset -2", in)
	}
	// b at word 3 -> start(0): offset = (0 - 16)/4 = -4, encoded as beq
	if in := decodeAt(t, p, 3); in.Op != isa.OpBEQ || in.Imm != -4 || in.R1 != 0 || in.R2 != 0 {
		t.Errorf("b = %v, want beq offset -4", in)
	}
	if v := p.MustSymbol("loop"); v != 4 {
		t.Errorf("loop = %d, want 4", v)
	}
}

func TestForwardBranch(t *testing.T) {
	p := mustAsm(t, `
		beq r1, r2, done
		nop
	done:
		halt
	`)
	if in := decodeAt(t, p, 0); in.Imm != 1 {
		t.Errorf("forward beq offset = %d, want 1", in.Imm)
	}
}

func TestCallRet(t *testing.T) {
	p := mustAsm(t, `
		call fn
		halt
	fn:
		ret
	`)
	in := decodeAt(t, p, 0)
	if in.Op != isa.OpBL || in.Rd != isa.RegRP || in.Imm != 1 {
		t.Errorf("call = %v", in)
	}
	if in := decodeAt(t, p, 2); in.Op != isa.OpBV || in.R1 != isa.RegRP {
		t.Errorf("ret = %v", in)
	}
}

func TestLiLa(t *testing.T) {
	p := mustAsm(t, `
		li r1, 0x12345678
		la r2, data
	data:
		.word 99
	`)
	// 0x12345678 = hi:0x2468A lo:0x678
	if in := decodeAt(t, p, 0); in.Op != isa.OpLUI || in.Rd != 1 || in.Imm != 0x2468A {
		t.Errorf("li lui = %v", in)
	}
	if in := decodeAt(t, p, 1); in.Op != isa.OpORI || in.Rd != 1 || in.R1 != 1 || in.Imm != 0x678 {
		t.Errorf("li ori = %v", in)
	}
	// data is at 4*4 = 16 = hi:0 lo:16
	if in := decodeAt(t, p, 2); in.Op != isa.OpLUI || in.Imm != 0 {
		t.Errorf("la lui = %v", in)
	}
	if in := decodeAt(t, p, 3); in.Op != isa.OpORI || in.Imm != 16 {
		t.Errorf("la ori = %v", in)
	}
	if p.Words[4] != 99 {
		t.Errorf("data word = %d, want 99", p.Words[4])
	}
}

func TestLiRoundTripValues(t *testing.T) {
	// li must reconstruct arbitrary 32-bit values via lui<<11 | ori.
	for _, v := range []uint32{0, 1, 0x7FF, 0x800, 0xFFFFFFFF, 0x80000000, 0xDEADBEEF, 1 << 11} {
		p := mustAsm(t, "\tli r1, "+hex(v)+"\n")
		lui := decodeAt(t, p, 0)
		ori := decodeAt(t, p, 1)
		got := uint32(lui.Imm)<<11 | uint32(ori.Imm)
		if got != v {
			t.Errorf("li %08x reconstructs to %08x", v, got)
		}
	}
}

func hex(v uint32) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, 10)
	out = append(out, '0', 'x')
	for i := 28; i >= 0; i -= 4 {
		out = append(out, digits[(v>>uint(i))&0xF])
	}
	return string(out)
}

func TestDirectives(t *testing.T) {
	p := mustAsm(t, `
		.org 0x1000
		.equ MAGIC, 0xABCD
	entry:
		li r1, MAGIC
		.align 16
	tbl:
		.word 1, 2, 3
		.space 8
		.byte 1, 2, 3, 4
		.asciz "hi"
	`)
	if p.Origin != 0x1000 {
		t.Fatalf("origin = %x", p.Origin)
	}
	if v := p.MustSymbol("entry"); v != 0x1000 {
		t.Errorf("entry = %x", v)
	}
	tbl := p.MustSymbol("tbl")
	if tbl != 0x1010 {
		t.Errorf("tbl = %x, want 0x1010 (aligned)", tbl)
	}
	idx := (tbl - p.Origin) / 4
	if p.Words[idx] != 1 || p.Words[idx+1] != 2 || p.Words[idx+2] != 3 {
		t.Errorf("table contents wrong: %v", p.Words[idx:idx+3])
	}
	// .space 8 = 2 zero words
	if p.Words[idx+3] != 0 || p.Words[idx+4] != 0 {
		t.Errorf(".space contents wrong")
	}
	// .byte 1,2,3,4 packs little-endian
	if p.Words[idx+5] != 0x04030201 {
		t.Errorf(".byte word = %08x, want 04030201", p.Words[idx+5])
	}
	// "hi\0" plus pad
	if p.Words[idx+6] != uint32('h')|uint32('i')<<8 {
		t.Errorf(".asciz word = %08x", p.Words[idx+6])
	}
}

func TestExpressions(t *testing.T) {
	p := mustAsm(t, `
		.equ A, 10
		.equ B, 3
		.word A + B * 2
		.word (A + B) * 2
		.word A << 4
		.word A | B
		.word A & 2
		.word -1
		.word ~0
		.word 'x'
		.word '\n'
		.word %hi(0x12345678)
		.word %lo(0x12345678)
		.word A - B
	`)
	want := []uint32{16, 26, 160, 11, 2, 0xFFFFFFFF, 0xFFFFFFFF, 'x', '\n', 0x2468A, 0x678, 7}
	for i, w := range want {
		if p.Words[i] != w {
			t.Errorf("word %d = %#x, want %#x", i, p.Words[i], w)
		}
	}
}

func TestDotSymbol(t *testing.T) {
	p := mustAsm(t, `
		.org 0x100
		.word .
		.word .
	`)
	if p.Words[0] != 0x100 || p.Words[1] != 0x104 {
		t.Errorf("dot = %x,%x want 100,104", p.Words[0], p.Words[1])
	}
}

func TestControlRegisters(t *testing.T) {
	p := mustAsm(t, `
		mfctl r1, rctr
		mtctl itmr, r2
		mfctl r3, cr20
		mftod r4
	`)
	if in := decodeAt(t, p, 0); in.Op != isa.OpMFCTL || in.Imm != int32(isa.CRRCTR) {
		t.Errorf("mfctl = %v", in)
	}
	if in := decodeAt(t, p, 1); in.Op != isa.OpMTCTL || in.Imm != int32(isa.CRITMR) || in.R1 != 2 {
		t.Errorf("mtctl = %v", in)
	}
	if in := decodeAt(t, p, 2); in.Imm != 20 {
		t.Errorf("cr20 = %v", in)
	}
	if in := decodeAt(t, p, 3); in.Op != isa.OpMFTOD || in.Rd != 4 {
		t.Errorf("mftod = %v", in)
	}
}

func TestSystemInstructions(t *testing.T) {
	p := mustAsm(t, `
		rfi
		halt
		wfi
		ptlb
		itlbi r1, r2
		probe r3, r4, 1
		break 42
		diag 7
		gate r2, g
	g:	nop
	`)
	wantOps := []isa.Op{isa.OpRFI, isa.OpHALT, isa.OpWFI, isa.OpPTLB, isa.OpITLBI,
		isa.OpPROBE, isa.OpBREAK, isa.OpDIAG, isa.OpGATE, isa.OpNOP}
	for i, op := range wantOps {
		if in := decodeAt(t, p, i); in.Op != op {
			t.Errorf("word %d op = %v, want %v", i, in.Op, op)
		}
	}
	if in := decodeAt(t, p, 6); in.Imm != 42 {
		t.Errorf("break imm = %d", in.Imm)
	}
}

func TestComments(t *testing.T) {
	p := mustAsm(t, `
		nop ; semicolon comment
		nop # hash comment
		nop // slash comment
		; full-line comment
	`)
	if len(p.Words) != 3 {
		t.Errorf("len = %d, want 3", len(p.Words))
	}
}

func TestMultipleLabelsOneLine(t *testing.T) {
	p := mustAsm(t, `
	a: b: nop
	`)
	if p.MustSymbol("a") != 0 || p.MustSymbol("b") != 0 {
		t.Error("stacked labels wrong")
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"\tbogus r1, r2\n", "unknown mnemonic"},
		{"\tadd r1, r2\n", "want 3 operands"},
		{"\tadd r1, r2, r99\n", "bad register"},
		{"\tldw r1, 99999(r2)\n", "out of imm16 range"},
		{"a: nop\na: nop\n", "duplicate symbol"},
		{"\t.equ X, 1\n\t.equ X, 2\n", "duplicate symbol"},
		{"\tbeq r1, r2, nowhere\n", "undefined symbol"},
		{"\t.org 8\n\t.org 4\n", "moves backwards"},
		{"\t.bogus 3\n", "unknown directive"},
		{"\t.space end\nend: nop\n", "forward reference"},
		{"\t.ascii nope\n", "expected quoted string"},
		{"\tmfctl r1, cr99\n", "bad control register"},
		{"\t.word 1 +\n", "unexpected end"},
		{"\t.word (1\n", "missing )"},
		{"\t.align 3\n", "multiple of 4"},
	}
	for _, c := range cases {
		_, err := Assemble("t.s", c.src)
		if err == nil {
			t.Errorf("Assemble(%q) succeeded, want error containing %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Assemble(%q) error = %q, want containing %q", c.src, err, c.frag)
		}
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("file.s", "\tnop\n\tbogus\n")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "file.s:2:") {
		t.Errorf("error = %q, want file.s:2: prefix", err)
	}
}

func TestBytesLittleEndian(t *testing.T) {
	p := mustAsm(t, "\t.word 0x11223344\n")
	b := p.Bytes()
	if len(b) != 4 || b[0] != 0x44 || b[1] != 0x33 || b[2] != 0x22 || b[3] != 0x11 {
		t.Errorf("Bytes = % x", b)
	}
}

func TestDisassembleListing(t *testing.T) {
	p := mustAsm(t, `
		.org 0x100
		add r1, r2, r3
		.word 0xFFFFFFFF
	`)
	lst := p.Disassemble()
	if !strings.Contains(lst, "00000100") || !strings.Contains(lst, "add r1, r2, r3") {
		t.Errorf("listing missing instruction:\n%s", lst)
	}
	if !strings.Contains(lst, ".word 0xffffffff") {
		t.Errorf("listing missing raw word:\n%s", lst)
	}
}

func TestEndAndSymbolHelpers(t *testing.T) {
	p := mustAsm(t, "\t.org 0x10\n\tnop\n\tnop\n")
	if p.End() != 0x18 {
		t.Errorf("End = %x, want 0x18", p.End())
	}
	if _, ok := p.Symbol("nothing"); ok {
		t.Error("Symbol(nothing) should be absent")
	}
	names := mustAsm(t, "b: nop\na: nop\n").SymbolsSorted()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("SymbolsSorted = %v", names)
	}
}

func TestMustSymbolPanics(t *testing.T) {
	p := mustAsm(t, "\tnop\n")
	defer func() {
		if recover() == nil {
			t.Error("MustSymbol did not panic")
		}
	}()
	p.MustSymbol("missing")
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic")
		}
	}()
	MustAssemble("bad.s", "\tbogus\n")
}

// Round-trip: assemble, disassemble every word, reassemble the
// disassembly of instruction words, and compare encodings.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	src := `
		add r1, r2, r3
		sub r4, r5, r6
		addi r7, r8, -100
		andi r9, r10, 0xFF
		lui r11, 12345
		ldw r12, 16(r13)
		stb r14, -1(r15)
		beq r1, r2, 0x24
		bl r2, 0x24
		bv r2
		mfctl r1, iva
		mtctl eiem, r2
		itlbi r3, r4
		probe r5, r6, 0
		break 3
		mftod r7
		rfi
		nop
	`
	p1 := mustAsm(t, src)
	var lines []string
	for i, w := range p1.Words {
		in, err := isa.Decode(w)
		if err != nil {
			t.Fatalf("word %d undecodable: %v", i, err)
		}
		lines = append(lines, "\t"+in.String())
	}
	// Branch targets were absolute in the source; the disassembly prints
	// raw offsets, so patch branch lines back to absolute form.
	for i, ln := range lines {
		in, _ := isa.Decode(p1.Words[i])
		switch in.Op {
		case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
			target := uint32(4*i+4) + uint32(in.Imm*4)
			lines[i] = "\t" + in.Op.String() + " " + in.R1.String() + ", " + in.R2.String() + ", " + hex(target)
		case isa.OpBL, isa.OpGATE:
			target := uint32(4*i+4) + uint32(in.Imm*4)
			lines[i] = "\t" + in.Op.String() + " " + in.Rd.String() + ", " + hex(target)
		case isa.OpMFCTL:
			lines[i] = "\tmfctl " + in.Rd.String() + ", cr" + itoa(int(in.Imm))
		case isa.OpMTCTL:
			lines[i] = "\tmtctl cr" + itoa(int(in.Imm)) + ", " + in.R1.String()
		}
		_ = ln
	}
	p2 := mustAsm(t, strings.Join(lines, "\n")+"\n")
	if len(p1.Words) != len(p2.Words) {
		t.Fatalf("length mismatch %d vs %d", len(p1.Words), len(p2.Words))
	}
	for i := range p1.Words {
		if p1.Words[i] != p2.Words[i] {
			t.Errorf("word %d: %08x vs %08x", i, p1.Words[i], p2.Words[i])
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestPaddingBound: .space, .org and .align take a 32-bit operand and
// used to pad to it a byte or a word at a time — seconds and gigabytes
// from one line. An image past MaxImageBytes is refused with the usual
// line-numbered error before anything is padded; one inside it pads as
// it always did.
func TestPaddingBound(t *testing.T) {
	for _, c := range []struct {
		src  string
		line string
	}{
		{"\t.space 0x10000000\n", "t.s:1:"},
		{"\tnop\n\t.org 0x20000000\n", "t.s:2:"},
		{"\tnop\n\t.align 0x10000000\n", "t.s:2:"},
		{"\t.space 0xFFFFFFFF\n", "t.s:1:"},
		{"\tnop\n\t.org 0xFFFFFFFC\n", "t.s:2:"},
		{"\tnop\n\t.align 0x80000000\n", "t.s:2:"},
		{"\t.org 0xFFFFF000\n\tnop\n\t.align 0x4000000\n\t.space 0x4000000\n", "t.s:4:"},
		{"\t.byte 1\n\t.space 0x4000000\n", "t.s:2:"},
		{"\t.space 0x4000000\n\tnop\n", "t.s:2:"},
	} {
		// The best of three: the refusal takes microseconds, a shared
		// host's hiccup longer.
		var p *Program
		var err error
		took := time.Hour
		for try := 0; try < 3 && took > 10*time.Millisecond; try++ {
			start := time.Now()
			p, err = Assemble("t.s", c.src)
			took = min(took, time.Since(start))
		}
		if took > 10*time.Millisecond {
			t.Errorf("Assemble(%q) took %v", c.src, took)
		}
		if err == nil {
			t.Errorf("Assemble(%q) succeeded with %d words", c.src, len(p.Words))
		} else if !strings.Contains(err.Error(), "limit") || !strings.HasPrefix(err.Error(), c.line) {
			t.Errorf("Assemble(%q) error = %q, want the size limit at %s", c.src, err, c.line)
		}
	}

	// Inside the bound, byte for byte what padding one at a time gave.
	p := mustAsm(t, `
		.org 0x100
		.byte 0xAA
		.space 2           ; short of the word: .space pads it out
		.byte 0xBB
		.byte 0xCC
		.space 9           ; 2 to the word, one whole word, 3 over
		.word 0x11111111
		.align 32
	a:	.word 0x22222222
		.org 0x180
	b:	.word 0x33333333
		.space 0
		.space 1
	c:	nop
	`)
	want := map[uint32]uint32{
		0x100: 0x000000AA, 0x104: 0x0000CCBB, 0x108: 0, 0x10C: 0, 0x110: 0x11111111,
		0x120: 0x22222222, 0x180: 0x33333333, 0x184: 0,
	}
	for addr := uint32(0x100); addr < p.MustSymbol("c"); addr += 4 {
		if got := p.Words[(addr-p.Origin)/4]; got != want[addr] {
			t.Errorf("word at %#x = %#08x, want %#08x", addr, got, want[addr])
		}
	}
	if a, b, c := p.MustSymbol("a"), p.MustSymbol("b"), p.MustSymbol("c"); a != 0x120 || b != 0x180 || c != 0x188 {
		t.Errorf("a, b, c = %#x, %#x, %#x; want 0x120, 0x180, 0x188", a, b, c)
	}

	// The largest image there is.
	p = mustAsm(t, "\t.org 0x1000\n\t.space 0x3FFFFFC\nlast:\tnop\n")
	if len(p.Words)*4 != MaxImageBytes || p.MustSymbol("last") != 0x1000+MaxImageBytes-4 {
		t.Errorf("largest image: %d bytes, last at %#x", len(p.Words)*4, p.MustSymbol("last"))
	}
}
