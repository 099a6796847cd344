package asm

import (
	"strconv"
	"strings"

	"repro/internal/isa"
)

// mnemonic word counts; every mnemonic assembles to a fixed number of
// words so that pass 1 can lay out labels without evaluating operands.
var pseudoSizes = map[string]uint32{
	"li": 2, "la": 2,
}

// opByMnemonic maps assembly mnemonics to opcodes.
var opByMnemonic = map[string]isa.Op{}

func init() {
	for op := isa.Op(1); op < 64; op++ {
		if op.Valid() {
			opByMnemonic[op.String()] = op
		}
	}
}

// instruction assembles one instruction (or pseudo-instruction) line.
func (a *assembler) instruction(ln sourceLine, mnemonic, rest string) error {
	if err := a.flushBytes(ln.num); err != nil {
		return err
	}
	size, isPseudo := pseudoSizes[mnemonic]
	if !isPseudo {
		switch mnemonic {
		case "mov", "b", "call", "ret":
			size = 1
			isPseudo = true
		default:
			if _, ok := opByMnemonic[mnemonic]; !ok {
				return a.errf(ln.num, "unknown mnemonic %q", mnemonic)
			}
			size = 1
		}
	}
	if a.pass == 1 {
		if err := a.room(ln.num, 4*uint64(size)); err != nil {
			return err
		}
		a.loc += 4 * size
		return nil
	}

	ops := splitOperands(rest)
	emit := func(in isa.Inst) error {
		w, err := isa.Encode(in)
		if err != nil {
			return a.errf(ln.num, "%v", err)
		}
		return a.emitWord(ln, w)
	}

	reg := func(i int) (isa.Reg, error) {
		if i >= len(ops) {
			return 0, a.errf(ln.num, "%s: missing operand %d", mnemonic, i+1)
		}
		r, ok := parseReg(ops[i])
		if !ok {
			return 0, a.errf(ln.num, "%s: bad register %q", mnemonic, ops[i])
		}
		return r, nil
	}
	val := func(i int) (uint32, error) {
		if i >= len(ops) {
			return 0, a.errf(ln.num, "%s: missing operand %d", mnemonic, i+1)
		}
		return a.eval(ln, ops[i])
	}
	wantOps := func(n int) error {
		if len(ops) != n {
			return a.errf(ln.num, "%s: want %d operands, got %d", mnemonic, n, len(ops))
		}
		return nil
	}
	// branchOff computes the signed word offset from the next instruction
	// to an absolute target address.
	branchOff := func(target uint32) (int32, error) {
		next := a.loc + 4
		diff := int64(int32(target)) - int64(int32(next))
		if diff%4 != 0 {
			return 0, a.errf(ln.num, "%s: branch target 0x%x not word-aligned", mnemonic, target)
		}
		return int32(diff / 4), nil
	}

	if isPseudo {
		switch mnemonic {
		case "li", "la":
			if err := wantOps(2); err != nil {
				return err
			}
			rd, err := reg(0)
			if err != nil {
				return err
			}
			v, err := val(1)
			if err != nil {
				return err
			}
			hi := int32(v >> 11)
			lo := int32(v & 0x7FF)
			if err := emit(isa.Inst{Op: isa.OpLUI, Rd: rd, Imm: hi}); err != nil {
				return err
			}
			return emit(isa.Inst{Op: isa.OpORI, Rd: rd, R1: rd, Imm: lo})
		case "mov":
			if err := wantOps(2); err != nil {
				return err
			}
			rd, err := reg(0)
			if err != nil {
				return err
			}
			rs, err := reg(1)
			if err != nil {
				return err
			}
			return emit(isa.Inst{Op: isa.OpOR, Rd: rd, R1: rs, R2: isa.RegZero})
		case "b":
			if err := wantOps(1); err != nil {
				return err
			}
			v, err := val(0)
			if err != nil {
				return err
			}
			off, err := branchOff(v)
			if err != nil {
				return err
			}
			return emit(isa.Inst{Op: isa.OpBEQ, R1: isa.RegZero, R2: isa.RegZero, Imm: off})
		case "call":
			if err := wantOps(1); err != nil {
				return err
			}
			v, err := val(0)
			if err != nil {
				return err
			}
			off, err := branchOff(v)
			if err != nil {
				return err
			}
			return emit(isa.Inst{Op: isa.OpBL, Rd: isa.RegRP, Imm: off})
		case "ret":
			if err := wantOps(0); err != nil {
				return err
			}
			return emit(isa.Inst{Op: isa.OpBV, R1: isa.RegRP})
		}
	}

	op := opByMnemonic[mnemonic]
	switch op {
	case isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL,
		isa.OpSRL, isa.OpSRA, isa.OpSLT, isa.OpSLTU, isa.OpMUL, isa.OpDIV, isa.OpREM:
		if err := wantOps(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		r1, err := reg(1)
		if err != nil {
			return err
		}
		r2, err := reg(2)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: op, Rd: rd, R1: r1, R2: r2})

	case isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpSLTI,
		isa.OpSLTIU, isa.OpSLLI, isa.OpSRLI, isa.OpSRAI:
		if err := wantOps(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		r1, err := reg(1)
		if err != nil {
			return err
		}
		v, err := val(2)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: op, Rd: rd, R1: r1, Imm: immFor(op, v)})

	case isa.OpLUI:
		if err := wantOps(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		v, err := val(1)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: op, Rd: rd, Imm: int32(v)})

	case isa.OpLDW, isa.OpLDH, isa.OpLDB, isa.OpSTW, isa.OpSTH, isa.OpSTB:
		if err := wantOps(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		off, base, err := a.memOperand(ln, mnemonic, ops[1])
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: op, Rd: rd, R1: base, Imm: off})

	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		if err := wantOps(3); err != nil {
			return err
		}
		r1, err := reg(0)
		if err != nil {
			return err
		}
		r2, err := reg(1)
		if err != nil {
			return err
		}
		v, err := val(2)
		if err != nil {
			return err
		}
		off, err := branchOff(v)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: op, R1: r1, R2: r2, Imm: off})

	case isa.OpBL, isa.OpGATE:
		if err := wantOps(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		v, err := val(1)
		if err != nil {
			return err
		}
		off, err := branchOff(v)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: op, Rd: rd, Imm: off})

	case isa.OpBV:
		if err := wantOps(1); err != nil {
			return err
		}
		r1, err := reg(0)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: op, R1: r1})

	case isa.OpMFCTL:
		if err := wantOps(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		cr, ok := isa.CRByName(strings.TrimSpace(ops[1]))
		if !ok {
			return a.errf(ln.num, "mfctl: bad control register %q", ops[1])
		}
		return emit(isa.Inst{Op: op, Rd: rd, Imm: int32(cr)})

	case isa.OpMTCTL:
		if err := wantOps(2); err != nil {
			return err
		}
		cr, ok := isa.CRByName(strings.TrimSpace(ops[0]))
		if !ok {
			return a.errf(ln.num, "mtctl: bad control register %q", ops[0])
		}
		r1, err := reg(1)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: op, R1: r1, Imm: int32(cr)})

	case isa.OpPROBE:
		if err := wantOps(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		r1, err := reg(1)
		if err != nil {
			return err
		}
		v, err := val(2)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: op, Rd: rd, R1: r1, Imm: int32(v)})

	case isa.OpITLBI:
		if err := wantOps(2); err != nil {
			return err
		}
		r1, err := reg(0)
		if err != nil {
			return err
		}
		r2, err := reg(1)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: op, R1: r1, R2: r2})

	case isa.OpBREAK, isa.OpDIAG:
		code := uint32(0)
		if len(ops) > 1 {
			return a.errf(ln.num, "%s: want at most 1 operand", mnemonic)
		}
		if len(ops) == 1 {
			v, err := val(0)
			if err != nil {
				return err
			}
			code = v
		}
		return emit(isa.Inst{Op: op, Imm: int32(code & 0xFFFF)})

	case isa.OpMFTOD:
		if err := wantOps(1); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		return emit(isa.Inst{Op: op, Rd: rd})

	case isa.OpRFI, isa.OpHALT, isa.OpWFI, isa.OpPTLB, isa.OpNOP:
		if err := wantOps(0); err != nil {
			return err
		}
		return emit(isa.Inst{Op: op})
	}
	return a.errf(ln.num, "unhandled mnemonic %q", mnemonic)
}

// immFor converts an evaluated 32-bit value into the immediate form the
// opcode expects (sign-interpreted for signed immediates).
func immFor(op isa.Op, v uint32) int32 {
	switch op {
	case isa.OpANDI, isa.OpORI, isa.OpXORI:
		return int32(v & 0xFFFF)
	case isa.OpSLLI, isa.OpSRLI, isa.OpSRAI:
		return int32(v & 31)
	default:
		return int32(int16(uint16(v)))
	}
}

// memOperand parses "EXPR(reg)" or "(reg)" or "EXPR" (base r0).
func (a *assembler) memOperand(ln sourceLine, mnemonic, s string) (int32, isa.Reg, error) {
	s = strings.TrimSpace(s)
	open := strings.LastIndex(s, "(")
	if open < 0 {
		v, err := a.eval(ln, s)
		if err != nil {
			return 0, 0, err
		}
		return int32(int16(uint16(v))), isa.RegZero, nil
	}
	if !strings.HasSuffix(s, ")") {
		return 0, 0, a.errf(ln.num, "%s: malformed memory operand %q", mnemonic, s)
	}
	baseTok := strings.TrimSpace(s[open+1 : len(s)-1])
	base, ok := parseReg(baseTok)
	if !ok {
		// Not a register in parens: the parens are part of the expression.
		v, err := a.eval(ln, s)
		if err != nil {
			return 0, 0, err
		}
		return int32(int16(uint16(v))), isa.RegZero, nil
	}
	offExpr := strings.TrimSpace(s[:open])
	var off uint32
	if offExpr != "" {
		v, err := a.eval(ln, offExpr)
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	ov := int32(off)
	if ov < -(1<<15) || ov >= 1<<15 {
		// Allow small unsigned values that fit when reinterpreted.
		if off < 1<<15 {
			ov = int32(off)
		} else {
			return 0, 0, a.errf(ln.num, "%s: offset %d out of imm16 range", mnemonic, int32(off))
		}
	}
	return ov, base, nil
}

// --- expression evaluator -------------------------------------------------

// eval evaluates an expression; in pass 2 undefined symbols are errors.
func (a *assembler) eval(ln sourceLine, s string) (uint32, error) {
	p := &exprParser{a: a, ln: ln, s: s}
	v, err := p.parse()
	if err != nil {
		return 0, err
	}
	if p.undef != "" && a.pass == 2 {
		return 0, a.errf(ln.num, "undefined symbol %q", p.undef)
	}
	if p.undef != "" && a.layoutSensitive {
		return 0, a.errf(ln.num, "forward reference %q in layout directive", p.undef)
	}
	return v, nil
}

type exprParser struct {
	a     *assembler
	ln    sourceLine
	s     string
	pos   int
	undef string // first undefined symbol encountered (pass 1 tolerates)
}

func (p *exprParser) parse() (uint32, error) {
	v, err := p.parseOr()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return 0, p.errf("trailing junk %q in expression", p.s[p.pos:])
	}
	return v, nil
}

func (p *exprParser) errf(format string, args ...any) error {
	return p.a.errf(p.ln.num, format, args...)
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	if p.pos < len(p.s) {
		return p.s[p.pos]
	}
	return 0
}

func (p *exprParser) parseOr() (uint32, error) {
	v, err := p.parseAnd()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.peek() == '|' {
			p.pos++
			r, err := p.parseAnd()
			if err != nil {
				return 0, err
			}
			v |= r
			continue
		}
		return v, nil
	}
}

func (p *exprParser) parseAnd() (uint32, error) {
	v, err := p.parseShift()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.peek() == '&' {
			p.pos++
			r, err := p.parseShift()
			if err != nil {
				return 0, err
			}
			v &= r
			continue
		}
		return v, nil
	}
}

func (p *exprParser) parseShift() (uint32, error) {
	v, err := p.parseAdd()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if strings.HasPrefix(p.s[p.pos:], "<<") {
			p.pos += 2
			r, err := p.parseAdd()
			if err != nil {
				return 0, err
			}
			v <<= r & 31
			continue
		}
		if strings.HasPrefix(p.s[p.pos:], ">>") {
			p.pos += 2
			r, err := p.parseAdd()
			if err != nil {
				return 0, err
			}
			v >>= r & 31
			continue
		}
		return v, nil
	}
}

func (p *exprParser) parseAdd() (uint32, error) {
	v, err := p.parseMul()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		switch p.peek() {
		case '+':
			p.pos++
			r, err := p.parseMul()
			if err != nil {
				return 0, err
			}
			v += r
		case '-':
			p.pos++
			r, err := p.parseMul()
			if err != nil {
				return 0, err
			}
			v -= r
		default:
			return v, nil
		}
	}
}

func (p *exprParser) parseMul() (uint32, error) {
	v, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.peek() == '*' {
			p.pos++
			r, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			v *= r
			continue
		}
		return v, nil
	}
}

func (p *exprParser) parseUnary() (uint32, error) {
	p.skipSpace()
	switch p.peek() {
	case '-':
		p.pos++
		v, err := p.parseUnary()
		return -v, err
	case '~':
		p.pos++
		v, err := p.parseUnary()
		return ^v, err
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (uint32, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return 0, p.errf("unexpected end of expression %q", p.s)
	}
	c := p.s[p.pos]
	switch {
	case c == '(':
		p.pos++
		v, err := p.parseOr()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return 0, p.errf("missing ) in expression %q", p.s)
		}
		p.pos++
		return v, nil
	case c == '%':
		// %hi(expr) / %lo(expr)
		rest := p.s[p.pos:]
		var fn string
		switch {
		case strings.HasPrefix(rest, "%hi("):
			fn = "hi"
			p.pos += 4
		case strings.HasPrefix(rest, "%lo("):
			fn = "lo"
			p.pos += 4
		default:
			return 0, p.errf("unknown %% function in %q", p.s)
		}
		v, err := p.parseOr()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return 0, p.errf("missing ) after %%%s", fn)
		}
		p.pos++
		if fn == "hi" {
			return v >> 11, nil
		}
		return v & 0x7FF, nil
	case c == '\'':
		// character literal 'x' or '\n'
		if p.pos+2 < len(p.s) && p.s[p.pos+1] == '\\' {
			if p.pos+3 >= len(p.s) || p.s[p.pos+3] != '\'' {
				return 0, p.errf("bad character literal in %q", p.s)
			}
			var v byte
			switch p.s[p.pos+2] {
			case 'n':
				v = '\n'
			case 't':
				v = '\t'
			case '0':
				v = 0
			case '\\':
				v = '\\'
			case '\'':
				v = '\''
			default:
				return 0, p.errf("unknown escape in character literal")
			}
			p.pos += 4
			return uint32(v), nil
		}
		if p.pos+2 >= len(p.s) || p.s[p.pos+2] != '\'' {
			return 0, p.errf("bad character literal in %q", p.s)
		}
		v := uint32(p.s[p.pos+1])
		p.pos += 3
		return v, nil
	case c >= '0' && c <= '9':
		start := p.pos
		if strings.HasPrefix(p.s[p.pos:], "0x") || strings.HasPrefix(p.s[p.pos:], "0X") {
			p.pos += 2
			for p.pos < len(p.s) && isHexDigit(p.s[p.pos]) {
				p.pos++
			}
			v, err := strconv.ParseUint(p.s[start+2:p.pos], 16, 32)
			if err != nil {
				return 0, p.errf("bad hex literal %q", p.s[start:p.pos])
			}
			return uint32(v), nil
		}
		for p.pos < len(p.s) && p.s[p.pos] >= '0' && p.s[p.pos] <= '9' {
			p.pos++
		}
		v, err := strconv.ParseUint(p.s[start:p.pos], 10, 32)
		if err != nil {
			return 0, p.errf("bad decimal literal %q", p.s[start:p.pos])
		}
		return uint32(v), nil
	case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '.':
		start := p.pos
		for p.pos < len(p.s) && isIdentChar(p.s[p.pos]) {
			p.pos++
		}
		name := p.s[start:p.pos]
		if name == "." {
			return p.a.loc, nil
		}
		if v, ok := p.a.symbols[name]; ok {
			return v, nil
		}
		if p.undef == "" {
			p.undef = name
		}
		return 0, nil
	default:
		return 0, p.errf("unexpected character %q in expression %q", string(c), p.s)
	}
}

func isHexDigit(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(c >= '0' && c <= '9')
}
