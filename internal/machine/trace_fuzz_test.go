// Seeded differential fuzzing of the superblock trace layer: randomly
// generated instruction pages — ALU-dense, branch-dense, memory-dense,
// privileged/resync-heavy, virtual-mode permission-trap and emulated
// trap-storm mixes — are driven through the Step and Run dispatch paths
// on identical machines, every Run call on a budget drawn at random.
// Digests are compared at every chunk boundary, the encoded states at
// every eighth, and full statistics (including TLB replacement state, the strictest
// observable) at the end. Seeds are fixed, so any failure reproduces.
//
// Every generated program installs real interruption handlers at the
// vector table, so trap-dense mixes keep making forward progress: the
// default handler skips the faulting instruction and returns, the
// virtual-mode mix remaps TLB misses and retries, the interval timer
// re-arms itself, and the spin mix's timer interrupt wakes its spins. Trap delivery, RFI, ITLBI and PTLB are all
// resync-class instructions, so these mixes constantly enter and leave
// traces mid-page — exactly the seams where the trace executor's
// recency bookkeeping has to replay Step's TLB touch order.
package machine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
)

const (
	fuzzIVA      = 0x1000 // vector table base (physical)
	fuzzTimerVal = 1777   // interval-timer reload used by the virt and spin mixes
	fuzzFlag     = 0x800  // the RAM word the spin mix's spins wait on
)

// fuzzVectors emits the interruption vector table at fuzzIVA. Every
// slot is exactly isa.VectorStride bytes. The default handler bumps the
// saved instruction address past the trapping instruction and returns;
// with remapMiss, the two TLB-miss slots instead identity-map the
// faulting page read/write/execute and retry; with timerReload, the
// interval-timer slot re-arms the timer; with wake, the external
// interrupt slot takes line 0 (the timer's) down, re-arms the timer and
// sets what genSpin's spins wait on — the flag word and the device latch
// (r19). Handlers run untranslated at PL 0 (DeliverTrap semantics) and
// own r21/r22.
func fuzzVectors(remapMiss, timerReload, wake bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".org %#x\n", fuzzIVA)
	for t := 0; t < isa.NumTrapCodes; t++ {
		switch {
		case wake && isa.Trap(t) == isa.TrapExtIntr:
			fmt.Fprintf(&b, `	addi r21, r0, 1
	mtctl eirr, r21   ; write-1-to-clear line 0
	addi r21, r0, %d
	mtctl itmr, r21
	stw r21, %#x(r0)  ; the flag word
	stw r21, 0(r19)   ; the device latch
	rfi
	.space 4
`, fuzzTimerVal, fuzzFlag)
		case remapMiss && (isa.Trap(t) == isa.TrapITLBMiss || isa.Trap(t) == isa.TrapDTLBMiss):
			b.WriteString(`	mfctl r21, cr21   ; faulting address (IOR)
	srli r21, r21, 12
	slli r21, r21, 12 ; page base
	ori r22, r21, 7   ; identity map, R|W|X
	itlbi r22, r21
	rfi
	.space 8
`)
		case timerReload && isa.Trap(t) == isa.TrapITimer:
			fmt.Fprintf(&b, "\tli r21, %d\n\tmtctl itmr, r21\n\trfi\n\t.space 16\n", fuzzTimerVal)
		default:
			b.WriteString(`	mfctl r21, cr23   ; saved PC (IIA)
	addi r21, r21, 4
	mtctl cr23, r21   ; skip the trapping instruction
	rfi
	.space 16
`)
		}
	}
	b.WriteString(".align 4096\n") // boot lands on the next page
	return b.String()
}

// fuzzGen builds one random program around the shared skeleton:
// vectors, a boot stub that points IVA at them, then a counted loop
// over the mix-specific body. Bodies may clobber r1..r15 freely;
// r16-r19 hold data-page bases, r20 is the loop counter, r21/r22
// belong to the trap handlers.
type fuzzGen struct {
	r *rand.Rand
	b strings.Builder
}

func (g *fuzzGen) f(format string, a ...any) { fmt.Fprintf(&g.b, "\t"+format+"\n", a...) }
func (g *fuzzGen) label(l string)            { g.b.WriteString(l + ":\n") }
func (g *fuzzGen) reg() int                  { return 1 + g.r.Intn(15) }

var fuzzALUOps = []string{"add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu", "mul"}
var fuzzALUImm = []string{"addi", "andi", "ori", "xori", "slti"}

func (g *fuzzGen) alu() {
	switch g.r.Intn(10) {
	case 0, 1:
		g.f("%s r%d, r%d, %d", fuzzALUImm[g.r.Intn(len(fuzzALUImm))], g.reg(), g.reg(), g.r.Intn(4001)-2000)
	case 2:
		g.f("%s r%d, r%d, %d", []string{"slli", "srli", "srai"}[g.r.Intn(3)], g.reg(), g.reg(), g.r.Intn(32))
	case 3:
		// Divide/remainder; a zero divisor raises an arithmetic trap
		// that the skip handler swallows on both paths.
		g.f("%s r%d, r%d, r%d", []string{"div", "rem"}[g.r.Intn(2)], g.reg(), g.reg(), g.reg())
	case 4:
		g.f("lui r%d, %d", g.reg(), g.r.Intn(1<<16))
	default:
		g.f("%s r%d, r%d, r%d", fuzzALUOps[g.r.Intn(len(fuzzALUOps))], g.reg(), g.reg(), g.reg())
	}
}

// mem emits one load or store through base register rb, aligned for its
// width (misaligned accesses are emitted by the virt mix explicitly).
func (g *fuzzGen) mem(rb int) {
	off := g.r.Intn(1024) * 4
	switch g.r.Intn(6) {
	case 0:
		g.f("ldw r%d, %d(r%d)", g.reg(), off, rb)
	case 1:
		g.f("stw r%d, %d(r%d)", g.reg(), off, rb)
	case 2:
		g.f("ldh r%d, %d(r%d)", g.reg(), off+2*g.r.Intn(2), rb)
	case 3:
		g.f("sth r%d, %d(r%d)", g.reg(), off+2*g.r.Intn(2), rb)
	case 4:
		g.f("ldb r%d, %d(r%d)", g.reg(), off+g.r.Intn(4), rb)
	default:
		g.f("stb r%d, %d(r%d)", g.reg(), off+g.r.Intn(4), rb)
	}
}

// boot emits the common prologue: IVA setup, data-page bases, loop
// counter. Extra setup (TLB mappings, timer) is passed through.
func (g *fuzzGen) boot(extra func()) {
	g.label("boot")
	g.f("li r1, %#x", fuzzIVA)
	g.f("mtctl cr14, r1") // IVA
	g.f("li r16, 0x10000")
	g.f("li r17, 0x11000")
	if extra != nil {
		extra()
	}
	g.f("li r20, 4000")
	g.label("loop")
}

func (g *fuzzGen) close() string {
	g.f("addi r20, r20, -1")
	g.f("bne r20, r0, loop")
	g.f("halt")
	return g.b.String()
}

// genALU: straight-line arithmetic, the densest trace-fusion case.
func genALU(r *rand.Rand) string {
	g := &fuzzGen{r: r}
	g.boot(nil)
	for i := 0; i < 120+r.Intn(120); i++ {
		g.alu()
	}
	return g.close()
}

// genBranch: short forward branches every few instructions, including
// compare+branch pairs eligible for fusion. Traces stay tiny and chain
// within the page.
func genBranch(r *rand.Rand) string {
	g := &fuzzGen{r: r}
	g.boot(nil)
	next := 0
	for i := 0; i < 60+r.Intn(60); i++ {
		g.alu()
		if r.Intn(2) == 0 {
			l := fmt.Sprintf("f%d", next)
			next++
			if r.Intn(2) == 0 {
				g.f("slti r%d, r%d, %d", g.reg(), g.reg(), r.Intn(200)-100)
			}
			br := []string{"beq", "bne", "blt", "bge", "bltu", "bgeu"}[r.Intn(6)]
			g.f("%s r%d, r%d, %s", br, g.reg(), g.reg(), l)
			for n := r.Intn(3); n >= 0; n-- {
				g.alu()
			}
			g.label(l)
		}
	}
	return g.close()
}

// genMem: load/store-dense over two physical data pages, stressing the
// executor's cached-translation path and its hit accounting.
func genMem(r *rand.Rand) string {
	g := &fuzzGen{r: r}
	g.boot(nil)
	for i := 0; i < 100+r.Intn(100); i++ {
		if r.Intn(3) == 0 {
			g.alu()
		} else {
			g.mem(16 + r.Intn(2))
		}
	}
	return g.close()
}

// genPriv: privileged and resync-class instructions (CR moves, TLB
// inserts and purges, probes, the odd BREAK) interleaved with plain
// arithmetic. Every resync instruction ends the enclosing trace, so
// this mix exercises constant trace entry/exit and ineligible pages.
func genPriv(r *rand.Rand) string {
	g := &fuzzGen{r: r}
	g.boot(nil)
	for i := 0; i < 100+r.Intn(100); i++ {
		if r.Intn(10) < 6 {
			g.alu()
			continue
		}
		switch r.Intn(6) {
		case 0:
			// Readable CRs: IVA, ISR, IOR, IPSW, IIA, EIEM, CPUID.
			g.f("mfctl r%d, cr%d", g.reg(), []int{14, 20, 21, 22, 23, 24, 27}[r.Intn(7)])
		case 1:
			g.f("mtctl cr24, r%d", g.reg()) // EIEM: any value is inert here
		case 2:
			g.f("itlbi r%d, r%d", g.reg(), g.reg()) // untranslated mode: inert mapping
		case 3:
			g.f("ptlb")
		case 4:
			g.f("probe r%d, r%d, %d", g.reg(), g.reg(), r.Intn(2))
		default:
			g.f("break %d", r.Intn(32)) // skip handler swallows it
		}
	}
	return g.close()
}

// genVirt: virtual addressing over a deliberately undersized TLB. Boot
// maps two code pages (execute-only), a read/write data page and a
// read-only page, arms the interval timer, and RFIs into translated
// mode. The body mixes legal accesses with stores to the read-only
// page (permission traps), touches of an unmapped page (TLB-miss
// remaps), and misaligned accesses (alignment traps). With fewer TLB
// slots than live pages, every iteration churns the replacement state,
// so any divergence in the trace executor's touch order surfaces as a
// TLB statistics or digest mismatch.
func genVirt(r *rand.Rand) string {
	g := &fuzzGen{r: r}
	g.label("boot")
	g.f("li r1, %#x", fuzzIVA)
	g.f("mtctl cr14, r1")
	for _, m := range []struct{ page, flags int }{
		{0x3000, 5}, {0x4000, 5}, // code: R|X
		{0x8000, 3}, // data: R|W
		{0x9000, 1}, // data: R only
	} {
		g.f("li r1, %#x", m.page|m.flags)
		g.f("li r2, %#x", m.page)
		g.f("itlbi r1, r2")
	}
	g.f("li r16, 0x8000") // read/write
	g.f("li r17, 0x9000") // read-only
	g.f("li r18, 0xA000") // unmapped
	g.f("li r20, 4000")
	g.f("li r1, %d", fuzzTimerVal)
	g.f("mtctl itmr, r1")
	g.f("li r1, %d", isa.PSWV)
	g.f("mtctl cr22, r1") // IPSW: translation on, PL 0
	g.f("li r1, vbody")
	g.f("mtctl cr23, r1") // IIA
	g.f("rfi")

	body := func(n int) {
		for i := 0; i < n; i++ {
			switch r.Intn(10) {
			case 0:
				g.f("stw r%d, %d(r17)", g.reg(), 4*r.Intn(1024)) // permission trap
			case 1:
				g.mem(18) // TLB miss, remapped by the handler
			case 2:
				g.f("ldw r%d, %d(r16)", g.reg(), 4*r.Intn(1023)+1+r.Intn(2)) // alignment trap
			case 3, 4, 5:
				g.mem(16)
			case 6:
				g.f("ldw r%d, %d(r17)", g.reg(), 4*r.Intn(1024)) // read-only page read: legal
			default:
				g.alu()
			}
		}
	}
	g.b.WriteString(".align 4096\n") // first virtual code page (0x3000)
	g.label("vbody")
	body(80 + r.Intn(80))
	g.f("b vbody2")
	g.b.WriteString(".align 4096\n") // second virtual code page (0x4000)
	g.label("vbody2")
	body(40 + r.Intn(40))
	g.f("addi r20, r20, -1")
	g.f("bne r20, r0, vbody")
	g.f("halt")
	return g.b.String()
}

// genPoll: the trap-storm mix, the run memo's case (memo.go). Boot drops
// to PL 1, where a load from the MMIO window and a clock read both trap;
// the driver (emuChunk) emulates them the way a hypervisor does instead
// of delivering them. The body strings status spins — load, mask,
// branch back until a bit comes up — between arithmetic runs, so the
// same short register-only call recurs from the same state, and the odd
// division by zero still goes through the skip handler at PL 0.
func genPoll(r *rand.Rand) string {
	g := &fuzzGen{r: r}
	g.label("boot")
	g.f("li r1, %#x", fuzzIVA)
	g.f("mtctl cr14, r1")
	g.f("li r19, %#x", machine.MMIOBase)
	g.f("li r20, 4000")
	g.f("li r1, 1")
	g.f("mtctl cr22, r1") // IPSW: PL 1, untranslated
	g.f("li r1, loop")
	g.f("mtctl cr23, r1") // IIA
	g.f("rfi")
	g.label("loop")
	for i := 0; i < 12+r.Intn(12); i++ {
		for n := r.Intn(6); n > 0; n-- {
			g.alu()
		}
		switch r.Intn(4) {
		case 0:
			g.f("mftod r%d", g.reg())
		default:
			ra := g.reg()
			g.label(fmt.Sprintf("s%d", i))
			g.f("ldw r%d, %d(r19)", ra, 4*r.Intn(8))
			for n := r.Intn(3); n > 0; n-- {
				g.f("xor r%d, r%d, r0", g.reg(), g.reg()) // a register move inside the spin
			}
			g.f("andi r%d, r%d, %d", ra, ra, 1<<r.Intn(8))
			g.f("beq r%d, r0, s%d", ra, i)
		}
	}
	return g.close()
}

// genSpin: the closed-form mix (trace_exec.go, Spins). Boot arms the
// interval timer and enables its line; its handler (fuzzVectors' wake)
// sets what a spin waits on. The body strings self-loops between
// arithmetic runs, each waiting on the flag word, a bit of the device's
// status latch (a pure load) or a bit of its counting register (not
// pure), with or without a RAM load, a loop-carried register and a
// counter carried through memory by a store — so some retire in closed
// form and some must not.
func genSpin(r *rand.Rand) string {
	g := &fuzzGen{r: r}
	g.label("boot")
	g.f("li r1, %#x", fuzzIVA)
	g.f("mtctl iva, r1")
	g.f("li r16, 0x10000")
	g.f("li r19, %#x", machine.MMIOBase)
	g.f("li r20, 4000")
	g.f("li r1, 1")
	g.f("mtctl eiem, r1")
	g.f("li r1, %d", fuzzTimerVal)
	g.f("mtctl itmr, r1")
	g.f("li r1, %d", isa.PSWI)
	g.f("mtctl ipsw, r1") // PL 0, untranslated, interrupts on
	g.f("li r1, loop")
	g.f("mtctl iia, r1")
	g.f("rfi")
	g.label("loop")
	for i := 0; i < 8+r.Intn(8); i++ {
		for n := r.Intn(6); n > 0; n-- {
			g.alu()
		}
		ra := g.reg()
		other := func() int { // a register other than ra
			return 1 + (ra+r.Intn(14))%15
		}
		g.label(fmt.Sprintf("s%d", i))
		if r.Intn(2) == 0 {
			g.f("ldw r%d, %d(r16)", other(), 4*r.Intn(1024)) // a RAM load
		}
		wait := r.Intn(3)
		mask := 1 << []int{0, 4, 5, 6, 7, 9, 10}[r.Intn(7)] // a bit the handler sets
		switch wait {
		case 0:
			g.f("ldw r%d, %#x(r0)", ra, fuzzFlag)
		case 1:
			g.f("ldw r%d, 0(r19)", ra) // the latch
		default:
			g.f("ldw r%d, 4(r19)", ra) // the counter
			mask = 1 << r.Intn(6)
		}
		if r.Intn(4) == 0 {
			c := other()
			g.f("addi r%d, r%d, 1", c, c) // loop-carried
		}
		if r.Intn(4) == 0 {
			c, off := other(), 4*r.Intn(1024)
			g.f("ldw r%d, %d(r16)", c, off) // carried through memory
			g.f("addi r%d, r%d, 1", c, c)
			g.f("stw r%d, %d(r16)", c, off)
		}
		g.f("andi r%d, r%d, %d", ra, ra, mask)
		g.f("beq r%d, r0, s%d", ra, i)
		switch wait {
		case 0:
			g.f("stw r0, %#x(r0)", fuzzFlag)
		case 1:
			g.f("stw r0, 0(r19)")
		}
	}
	return g.close()
}

// fuzzDev is genSpin's device: a status latch at offset 0 that stores
// set (a pure load) and a register at 4 that counts its loads (a load
// with a side effect).
type fuzzDev struct{ status, count uint32 }

func (d *fuzzDev) MMIOLoad(off uint32, _ int) (uint32, error) {
	if off == 4 {
		d.count++
		return d.count, nil
	}
	return d.status, nil
}
func (d *fuzzDev) MMIOStore(_ uint32, _ int, v uint32) error { d.status = v; return nil }
func (d *fuzzDev) MMIOPure(off uint32) bool                  { return off != 4 }

// drawBudget is the limit of one Run call that has left instructions to
// go: all of them, or — one call in two — a share drawn from r, so that
// calls end at every point of a trace and a poll meets every budget.
func drawBudget(r *rand.Rand, left uint64) uint64 {
	if r.Intn(2) == 0 {
		return left
	}
	return 1 + uint64(r.Int63n(int64(min(left, 160))))
}

// drawChunk is runChunk with every call's budget drawn (drawBudget).
func drawChunk(m *machine.Machine, n uint64, r *rand.Rand) {
	target := m.Cycles() + n
	for m.Cycles() < target && !m.Halted() {
		rr := m.Run(drawBudget(r, target-m.Cycles()))
		if rr.Trap != isa.TrapNone {
			m.DeliverTrap(rr.Trap, rr.ISR, rr.IOR)
		}
	}
}

// emuChunk is stepChunk/drawChunk for genPoll: a trapped load or clock
// read is emulated — Rd takes the next value of a sequence that is
// mostly zero, PC steps over it — and every other trap is delivered.
// emulated counts per machine, so every arm sees the same sequence. A nil
// r steps.
func emuChunk(m *machine.Machine, n uint64, r *rand.Rand, emulated *int) {
	target := m.Cycles() + n
	for m.Cycles() < target && !m.Halted() {
		var res machine.StepResult
		if r == nil {
			res = m.Step()
		} else {
			res = m.Run(drawBudget(r, target-m.Cycles())).StepResult
		}
		switch {
		case res.Trap == isa.TrapNone:
		case res.Inst.Op == isa.OpLDW && res.Trap == isa.TrapAccess, res.Inst.Op == isa.OpMFTOD && res.Trap == isa.TrapPriv:
			v := uint32(0)
			if *emulated++; *emulated%6 == 0 {
				v = ^uint32(0)
			}
			if res.Inst.Rd != 0 {
				m.Regs[res.Inst.Rd] = v
			}
			m.PC += 4
		default:
			m.DeliverTrap(res.Trap, res.ISR, res.IOR)
		}
	}
}

// fuzzDiff assembles vectors+program, boots identical machines, and
// drives one with Step and the others with Run, comparing at every
// chunk, and every eighth chunk and the last on the encoded state too
// (encodedEqual). Each Run arm draws the budget of every call from a
// stream of its own (drawBudget). With
// emulate the driver is emuChunk and the traced arm must have answered
// calls from the run memo; with spin each machine gets a fuzzDev, whose
// state is compared too, and the traced arm must have retired spins in
// closed form.
func fuzzDiff(t *testing.T, cfg machine.Config, src string, chunk, limit uint64, seed int64, emulate, spin bool) {
	t.Helper()
	p, err := asm.Assemble("fuzz", src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	entry := p.MustSymbol("boot")
	offCfg := cfg
	offCfg.NoTraces = true
	// Triangle: Step reference, Run with traces, Run without traces.
	a, b, c := machine.New(cfg), machine.New(cfg), machine.New(offCfg)
	a.LoadProgram(p.Origin, p.Words, entry)
	b.LoadProgram(p.Origin, p.Words, entry)
	c.LoadProgram(p.Origin, p.Words, entry)
	var devs [3]fuzzDev
	if spin {
		a.Bus, b.Bus, c.Bus = &devs[0], &devs[1], &devs[2]
	}

	var emulated [3]int
	rb, rc := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(^seed))
	for epoch := 0; a.Cycles() < limit && !a.Halted(); epoch++ {
		if emulate {
			emuChunk(a, chunk, nil, &emulated[0])
			emuChunk(b, chunk, rb, &emulated[1])
			emuChunk(c, chunk, rc, &emulated[2])
		} else {
			stepChunk(a, chunk)
			drawChunk(b, chunk, rb)
			drawChunk(c, chunk, rc)
		}
		if a.Cycles() != b.Cycles() || a.Cycles() != c.Cycles() {
			t.Fatalf("epoch %d: cycles diverge: step=%d run=%d run-notrace=%d",
				epoch, a.Cycles(), b.Cycles(), c.Cycles())
		}
		if a.Digest() != b.Digest() || a.Digest() != c.Digest() {
			t.Fatalf("epoch %d (cycle %d): state digests diverge: step pc=%#x run pc=%#x run-notrace pc=%#x",
				epoch, a.Cycles(), a.PC, b.PC, c.PC)
		}
		if epoch%8 == 0 && (a.DigestMemory() != b.DigestMemory() || a.DigestMemory() != c.DigestMemory()) {
			t.Fatalf("epoch %d (cycle %d): memory digests diverge", epoch, a.Cycles())
		}
		if devs[1] != devs[0] || devs[2] != devs[0] {
			t.Fatalf("epoch %d (cycle %d): device states diverge: step %+v run %+v run-notrace %+v",
				epoch, a.Cycles(), devs[0], devs[1], devs[2])
		}
		if epoch%8 == 0 {
			encodedEqual(t, fmt.Sprintf("epoch %d (cycle %d)", epoch, a.Cycles()), a, b, c)
		}
	}
	encodedEqual(t, "at the end", a, b, c)
	if ms := b.MemoStats(); emulate && ms.Hits == 0 {
		t.Fatalf("%d emulated traps and no run-memo hit: %+v", emulated[1], ms)
	}
	if ms := b.MemoStats(); spin && ms.Spun == 0 {
		t.Fatalf("no spin retired in closed form: %+v", ms)
	}
	for _, m := range []*machine.Machine{b, c} {
		if a.Halted() != m.Halted() {
			t.Fatalf("halt state diverges: step=%v run=%v", a.Halted(), m.Halted())
		}
		if a.DigestMemory() != m.DigestMemory() {
			t.Fatalf("final memory digests diverge")
		}
		if a.Stats != m.Stats {
			t.Fatalf("instruction statistics diverge:\nstep: %+v\nrun:  %+v", a.Stats, m.Stats)
		}
		if a.TLB.Stats != m.TLB.Stats {
			t.Fatalf("TLB statistics diverge:\nstep: %+v\nrun:  %+v", a.TLB.Stats, m.TLB.Stats)
		}
	}
}

// encodedEqual compares the Run arms byte for byte on their encoded
// state, and Step with them as traces promise.
func encodedEqual(t *testing.T, when string, step, run, noTraces *machine.Machine) {
	t.Helper()
	if !bytes.Equal(encodeState(run), encodeState(noTraces)) {
		t.Fatalf("%s: encoded states diverge:\nrun %+v\nrun-notrace %+v",
			when, run.CaptureState().TLB, noTraces.CaptureState().TLB)
	}
	if err := machine.OrderEqual(step, run, noTraces); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

func TestTraceFuzzDifferential(t *testing.T) {
	mixes := []struct {
		name string
		cfg  machine.Config
		vec  string
		gen  func(*rand.Rand) string
	}{
		{"alu", machine.Config{}, fuzzVectors(false, false, false), genALU},
		{"branch", machine.Config{}, fuzzVectors(false, false, false), genBranch},
		{"mem", machine.Config{}, fuzzVectors(false, false, false), genMem},
		{"priv", machine.Config{}, fuzzVectors(false, false, false), genPriv},
		{"virt", machine.Config{TLBSize: 4}, fuzzVectors(true, true, false), genVirt},
		{"virt-random-tlb", machine.Config{TLBSize: 4, TLBPolicy: "random", TLBSeed: 99},
			fuzzVectors(true, true, false), genVirt},
		{"poll", machine.Config{}, fuzzVectors(false, false, false), genPoll},
		{"spin", machine.Config{}, fuzzVectors(false, false, true), genSpin},
	}
	chunks := []uint64{97, 769, 1021}
	for _, mix := range mixes {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", mix.name, seed)
			t.Run(name, func(t *testing.T) {
				src := mix.vec + mix.gen(rand.New(rand.NewSource(seed*7919+int64(len(mix.name)))))
				fuzzDiff(t, mix.cfg, src, chunks[seed%int64(len(chunks))], 120_000, seed, mix.name == "poll", mix.name == "spin")
			})
		}
	}
}
