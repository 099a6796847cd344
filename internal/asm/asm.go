// Package asm implements a two-pass assembler for the PA-lite instruction
// set (see internal/isa). The guest operating system kernel and the
// benchmark workloads of the fault-tolerance reproduction are written in
// this assembly language and assembled at program start.
//
// Syntax summary:
//
//	; comment   # comment   // comment
//	label:                       ; define a label at the current address
//	.org  ADDR                   ; move the location counter forward
//	.word EXPR [, EXPR...]       ; emit 32-bit words
//	.byte EXPR [, EXPR...]       ; emit bytes (padded to word on flush)
//	.space N                     ; emit N zero bytes
//	.align N                     ; pad with zeros to an N-byte boundary
//	.equ  NAME, EXPR             ; define a constant symbol
//	.ascii "str"  /  .asciz "str"
//	add r1, r2, r3               ; machine instructions (see isa package)
//	ldw r1, 8(sp)                ; memory operands: EXPR(reg)
//	li  r1, EXPR                 ; pseudo: load 32-bit immediate (2 words)
//	la  r1, LABEL                ; pseudo: load address (2 words)
//	mov r1, r2                   ; pseudo: or r1, r2, r0
//	b   LABEL                    ; pseudo: beq r0, r0, LABEL
//	call LABEL                   ; pseudo: bl rp, LABEL
//	ret                          ; pseudo: bv rp
//
// Expressions support +, -, *, <<, >>, &, |, parentheses, decimal/hex/char
// literals, label and .equ symbols, and the functions %hi(x) (upper 21
// bits, for lui) and %lo(x) (low 11 bits, for ori).
package asm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// MaxImageBytes bounds an assembled image, origin to end: 64 MiB, 64
// times the RAM a session gives a machine. A source line can ask for
// padding up to a 32-bit operand (.space, .org, .align); the bound is
// what keeps one such line from costing gigabytes, and it is checked
// before the padding is emitted.
const MaxImageBytes = 64 << 20

// Program is the result of assembling a source file.
type Program struct {
	// Origin is the load address of Words[0].
	Origin uint32
	// Words is the assembled image, one 32-bit word per entry.
	Words []uint32
	// Symbols maps every label and .equ name to its value.
	Symbols map[string]uint32
	// Name is the source name passed to Assemble (used in errors).
	Name string
}

// Bytes returns the image as little-endian bytes.
func (p *Program) Bytes() []byte {
	out := make([]byte, 4*len(p.Words))
	for i, w := range p.Words {
		out[4*i] = byte(w)
		out[4*i+1] = byte(w >> 8)
		out[4*i+2] = byte(w >> 16)
		out[4*i+3] = byte(w >> 24)
	}
	return out
}

// Symbol returns the value of a symbol, with ok=false if undefined.
func (p *Program) Symbol(name string) (uint32, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// MustSymbol returns the value of a symbol, panicking if undefined. For
// use by harness code referencing symbols it itself placed in the source.
func (p *Program) MustSymbol(name string) uint32 {
	v, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("asm: undefined symbol %q in %s", name, p.Name))
	}
	return v
}

// End returns the first address past the assembled image.
func (p *Program) End() uint32 { return p.Origin + uint32(4*len(p.Words)) }

// Disassemble renders the program as an address-annotated listing.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i, w := range p.Words {
		addr := p.Origin + uint32(4*i)
		in, err := isa.Decode(w)
		if err != nil {
			fmt.Fprintf(&b, "%08x: %08x  .word 0x%08x\n", addr, w, w)
			continue
		}
		fmt.Fprintf(&b, "%08x: %08x  %s\n", addr, w, in)
	}
	return b.String()
}

// Error is an assembly diagnostic tied to a source line.
type Error struct {
	Name string // source name
	Line int    // 1-based line number
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.Name, e.Line, e.Msg) }

// registerAliases maps conventional names to register numbers.
var registerAliases = map[string]isa.Reg{
	"zero": isa.RegZero, "rp": isa.RegRP, "sp": isa.RegSP,
	"ret0": isa.RegRet0, "ret1": isa.RegRet1,
	"arg0": isa.RegArg0, "arg1": isa.RegArg1, "arg2": isa.RegArg2, "arg3": isa.RegArg3,
}

// parseReg resolves a register operand.
func parseReg(tok string) (isa.Reg, bool) {
	if r, ok := registerAliases[tok]; ok {
		return r, true
	}
	if strings.HasPrefix(tok, "r") {
		if n, err := strconv.Atoi(tok[1:]); err == nil && n >= 0 && n < isa.NumRegs {
			return isa.Reg(n), true
		}
	}
	return 0, false
}

// assembler holds state shared by the two passes.
type assembler struct {
	name    string
	lines   []sourceLine
	symbols map[string]uint32
	origin  uint32
	hasOrg  bool
	loc     uint32 // location counter (absolute address)
	out     []uint32
	pass    int
	pending []byte // byte-granular emission buffer
	// layoutSensitive marks evaluation contexts (.org/.space/.align/.equ)
	// where pass 1 must already know the value: forward references there
	// are errors, since label addresses depend on the result.
	layoutSensitive bool
}

// evalLayout evaluates an expression in a layout-sensitive context.
func (a *assembler) evalLayout(ln sourceLine, s string) (uint32, error) {
	a.layoutSensitive = true
	defer func() { a.layoutSensitive = false }()
	return a.eval(ln, s)
}

type sourceLine struct {
	num  int
	text string
}

// Assemble assembles src (named name for diagnostics) into a Program.
func Assemble(name, src string) (*Program, error) {
	a := &assembler{name: name, symbols: map[string]uint32{}}
	for i, raw := range strings.Split(src, "\n") {
		a.lines = append(a.lines, sourceLine{num: i + 1, text: raw})
	}
	// Pass 1: sizes and label addresses.
	a.pass = 1
	if err := a.run(); err != nil {
		return nil, err
	}
	// Pass 2: emit.
	a.pass = 2
	if err := a.run(); err != nil {
		return nil, err
	}
	return &Program{
		Origin:  a.origin,
		Words:   a.out,
		Symbols: a.symbols,
		Name:    name,
	}, nil
}

// MustAssemble is Assemble but panics on error; for embedded, known-good
// sources such as the guest kernel.
func MustAssemble(name, src string) *Program {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &Error{Name: a.name, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) run() error {
	a.loc = 0
	a.hasOrg = false
	a.origin = 0
	a.out = nil
	a.pending = nil
	for _, ln := range a.lines {
		if err := a.line(ln); err != nil {
			return err
		}
	}
	if err := a.flushBytes(0); err != nil {
		return err
	}
	return nil
}

// stripComment removes ;, # and // comments, respecting string literals.
func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inStr = !inStr
		case inStr:
			if c == '\\' {
				i++
			}
		case c == ';' || c == '#':
			return s[:i]
		case c == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

func (a *assembler) line(ln sourceLine) error {
	text := strings.TrimSpace(stripComment(ln.text))
	for {
		if text == "" {
			return nil
		}
		// Labels: identifier followed by ':'.
		if i := strings.Index(text, ":"); i > 0 && isIdent(text[:i]) && !strings.HasPrefix(text, ".") {
			label := text[:i]
			if a.pass == 1 {
				if _, dup := a.symbols[label]; dup {
					return a.errf(ln.num, "duplicate symbol %q", label)
				}
				a.symbols[label] = a.loc
			}
			text = strings.TrimSpace(text[i+1:])
			continue
		}
		break
	}
	fields := strings.SplitN(text, " ", 2)
	mnemonic := strings.ToLower(strings.TrimSpace(fields[0]))
	rest := ""
	if len(fields) > 1 {
		rest = strings.TrimSpace(fields[1])
	}
	if strings.HasPrefix(mnemonic, ".") {
		return a.directive(ln, mnemonic, rest)
	}
	return a.instruction(ln, mnemonic, rest)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// room reports an error when n more bytes would take the image past
// MaxImageBytes.
func (a *assembler) room(line int, n uint64) error {
	if size := uint64(a.loc-a.origin) + uint64(len(a.pending)) + n; size > MaxImageBytes {
		return a.errf(line, "image of %d bytes exceeds the %d-byte limit", size, MaxImageBytes)
	}
	return nil
}

// padWords emits k zero words (the padding of .org, .space and .align)
// without visiting them one by one, once it has checked there is room
// for them.
func (a *assembler) padWords(ln sourceLine, k uint32) error {
	if err := a.flushBytes(ln.num); err != nil || k == 0 {
		return err
	}
	if a.loc%4 != 0 {
		return a.errf(ln.num, "location counter 0x%x not word-aligned", a.loc)
	}
	if err := a.room(ln.num, 4*uint64(k)); err != nil {
		return err
	}
	if a.pass == 2 {
		end := int((a.loc-a.origin)/4 + k)
		a.out = append(a.out, make([]uint32, end-len(a.out))...)
	}
	a.loc += 4 * k
	return nil
}

// emitWord appends one word at the current location counter.
func (a *assembler) emitWord(ln sourceLine, w uint32) error {
	if err := a.flushBytes(ln.num); err != nil {
		return err
	}
	if a.loc%4 != 0 {
		return a.errf(ln.num, "location counter 0x%x not word-aligned", a.loc)
	}
	if err := a.room(ln.num, 4); err != nil {
		return err
	}
	if a.pass == 2 {
		idx := (a.loc - a.origin) / 4
		for uint32(len(a.out)) <= idx {
			a.out = append(a.out, 0)
		}
		a.out[idx] = w
	}
	a.loc += 4
	return nil
}

// emitBytes buffers byte-granular output, flushed to words on alignment.
func (a *assembler) emitBytes(bs ...byte) {
	a.pending = append(a.pending, bs...)
}

// flushBytes writes buffered bytes, zero-padding to the next word.
func (a *assembler) flushBytes(line int) error {
	if len(a.pending) == 0 {
		return nil
	}
	if err := a.room(line, 0); err != nil {
		return err
	}
	bs := a.pending
	a.pending = nil
	for len(bs)%4 != 0 {
		bs = append(bs, 0)
	}
	if a.loc%4 != 0 {
		return a.errf(line, "byte data at unaligned location 0x%x", a.loc)
	}
	for i := 0; i < len(bs); i += 4 {
		w := uint32(bs[i]) | uint32(bs[i+1])<<8 | uint32(bs[i+2])<<16 | uint32(bs[i+3])<<24
		if a.pass == 2 {
			idx := (a.loc - a.origin) / 4
			for uint32(len(a.out)) <= idx {
				a.out = append(a.out, 0)
			}
			a.out[idx] = w
		}
		a.loc += 4
	}
	return nil
}

func (a *assembler) directive(ln sourceLine, dir, rest string) error {
	switch dir {
	case ".org":
		v, err := a.evalLayout(ln, rest)
		if err != nil {
			return err
		}
		if err := a.flushBytes(ln.num); err != nil {
			return err
		}
		if !a.hasOrg && len(a.out) == 0 && a.loc == 0 {
			a.origin = v
			a.hasOrg = true
			a.loc = v
			return nil
		}
		if v < a.loc {
			return a.errf(ln.num, ".org 0x%x moves backwards (loc 0x%x)", v, a.loc)
		}
		if v%4 != 0 {
			return a.errf(ln.num, ".org 0x%x not word-aligned", v)
		}
		// Pad the gap with zero words.
		return a.padWords(ln, (v-a.loc+3)/4)
	case ".word":
		for _, part := range splitOperands(rest) {
			v, err := a.eval(ln, part)
			if err != nil {
				return err
			}
			if err := a.emitWord(ln, v); err != nil {
				return err
			}
		}
		return nil
	case ".byte":
		for _, part := range splitOperands(rest) {
			v, err := a.eval(ln, part)
			if err != nil {
				return err
			}
			if sv := int32(v); v > 0xFF && !(sv >= -128 && sv < 0) {
				return a.errf(ln.num, ".byte value %d out of range", sv)
			}
			a.emitBytes(byte(v))
		}
		return nil
	case ".space":
		v, err := a.evalLayout(ln, rest)
		if err != nil {
			return err
		}
		// Zero bytes up to the next word, whole words, then the tail.
		for ; v > 0 && len(a.pending)%4 != 0; v-- {
			a.emitBytes(0)
		}
		if err := a.padWords(ln, v/4); err != nil {
			return err
		}
		a.emitBytes(make([]byte, v%4)...)
		return a.flushBytes(ln.num)
	case ".align":
		v, err := a.evalLayout(ln, rest)
		if err != nil {
			return err
		}
		if v == 0 || v%4 != 0 {
			return a.errf(ln.num, ".align %d must be a positive multiple of 4", v)
		}
		if err := a.flushBytes(ln.num); err != nil {
			return err
		}
		return a.padWords(ln, ((v-a.loc%v)%v+3)/4)
	case ".equ":
		parts := splitOperands(rest)
		if len(parts) != 2 {
			return a.errf(ln.num, ".equ wants NAME, EXPR")
		}
		name := strings.TrimSpace(parts[0])
		if !isIdent(name) {
			return a.errf(ln.num, ".equ: bad name %q", name)
		}
		v, err := a.evalLayout(ln, parts[1])
		if err != nil {
			return err
		}
		if a.pass == 1 {
			if _, dup := a.symbols[name]; dup {
				return a.errf(ln.num, "duplicate symbol %q", name)
			}
			a.symbols[name] = v
		}
		return nil
	case ".ascii", ".asciz":
		s, err := parseString(rest)
		if err != nil {
			return a.errf(ln.num, "%s: %v", dir, err)
		}
		a.emitBytes([]byte(s)...)
		if dir == ".asciz" {
			a.emitBytes(0)
		}
		return a.flushBytes(ln.num)
	default:
		return a.errf(ln.num, "unknown directive %s", dir)
	}
}

// parseString parses a double-quoted string with \n \t \\ \" \0 escapes.
func parseString(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	body := s[1 : len(s)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("trailing backslash")
		}
		switch body[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case '0':
			b.WriteByte(0)
		default:
			return "", fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return b.String(), nil
}

// splitOperands splits on commas that are not inside parentheses or quotes.
func splitOperands(s string) []string {
	var parts []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(':
			if !inStr {
				depth++
			}
		case ')':
			if !inStr {
				depth--
			}
		case ',':
			if !inStr && depth == 0 {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(parts) > 0 {
		parts = append(parts, last)
	}
	return parts
}

// SymbolsSorted returns symbol names in deterministic order (for listings).
func (p *Program) SymbolsSorted() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
