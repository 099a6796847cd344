package machine

// The closed-form spin differential. The trace executor retires a
// self-loop iteration that can have changed nothing, and every one after
// it, in one step (trace_exec.go, Spins); these scenarios stand on both
// sides of "changed nothing". Four machines run each in lockstep, call
// by call: Step (the spec), Run, Run under NoTraces, and Run with
// debugNoSpin set. After every call the first three must agree as the
// window seams do (orderEqual: recency as order, stamps zeroed), and Run
// must agree with the no-spin arm on every byte of
// the encoded CaptureState() and on the raw LRU clock and stamps behind it
// (sameStamps) — a fast-forward leaves what the loop would have — and
// every device must stand where Step left its own.

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/nic"
)

var spinArms = [4]string{"step", "run", "run-notraces", "run-nospin"}

type spinRig struct {
	t  *testing.T
	c  *spinCase
	m  [4]*Machine
	pt map[uint32]TLBEntry
	// devs holds each arm's devices, as the case's bus built them.
	devs [4][]any
	n    int
	// h is a rolling FNV of the traced arm's encoding after every call:
	// equal to another build's that encodes alike, it is the cross-build
	// check that a change to the executor moves nothing a capture shows.
	h hash.Hash64
}

type spinCase struct {
	name string
	src  string
	real bool
	// tlbs are the TLB configurations to run under (nil: LRU and
	// round-robin, four slots).
	tlbs []Config
	// prepare sets an arm up; it returns the devices it wired to m.Bus.
	prepare func(m *Machine) []any
	// release lets the loop out, or not, before the n-th call: applied to
	// every arm alike.
	release func(m *Machine, devs []any, n int)
	// dev is an arm's device state, which must equal Step's.
	dev func(devs []any) string
	// spins: the traced arm must retire instructions in closed form;
	// otherwise it must retire none.
	spins bool
}

// latchBus is a status latch the driver sets: a pure load. It counts its
// loads, which are not device state, so a test can see them skipped.
type latchBus struct{ status, loads uint32 }

func (b *latchBus) MMIOLoad(uint32, int) (uint32, error) { b.loads++; return b.status, nil }
func (b *latchBus) MMIOStore(uint32, int, uint32) error  { return nil }
func (b *latchBus) MMIOPure(uint32) bool                 { return true }

func newSpinRig(t *testing.T, c *spinCase, cfg Config) *spinRig {
	t.Helper()
	p, err := asm.Assemble("spin.s", c.src)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MemBytes = 0x10000
	off := cfg
	off.NoTraces = true
	r := &spinRig{t: t, c: c, m: [4]*Machine{New(cfg), New(cfg), New(off), New(cfg)},
		pt: seamPageTable(cfg.MemBytes), h: fnv.New64a()}
	for i, m := range r.m {
		m.LoadProgram(p.Origin, p.Words, seamCode)
		m.Regs[2], m.Regs[8], m.Regs[11], m.Regs[13] = seamData, seamData2, seamSpare, seamDevVA
		if c.real {
			m.Regs[13] = MMIOBase
		} else {
			m.PSW = isa.PSWV
		}
		if c.prepare != nil {
			r.devs[i] = c.prepare(m)
		}
	}
	return r
}

// call makes one call of every arm: Run(limit), with the recovery counter
// or the interval timer armed to k first when rctr or itmr is. It
// compares the arms as the call leaves them, then lets the driver act on
// how it ended — map a missing page, step over a faulting instruction,
// take the timer's line down — and disarms both counters.
func (r *spinRig) call(limit uint64, rctr, itmr uint32) {
	r.t.Helper()
	if r.c.release != nil {
		for i, m := range r.m {
			r.c.release(m, r.devs[i], r.n)
		}
	}
	var rrs [4]RunResult
	for i, m := range r.m {
		if rctr != 0 {
			m.PSW |= isa.PSWR
			m.CRs[isa.CRRCTR] = rctr
		}
		if itmr != 0 {
			m.PSW |= isa.PSWI
			m.CRs[isa.CREIEM], m.CRs[isa.CRITMR] = 1, itmr
		}
		switch i {
		case 0:
			rrs[i] = stepRun(m, limit)
		case 3:
			debugNoSpin = true
			rrs[i] = m.Run(limit)
			debugNoSpin = false
		default:
			rrs[i] = m.Run(limit)
		}
	}
	when := fmt.Sprintf("call %d (limit %d, rctr %d, itmr %d: %v after %d at %#x)",
		r.n, limit, rctr, itmr, rrs[0].Trap, rrs[0].Executed, r.m[0].PC)
	for i, rr := range rrs[1:] {
		if rr != rrs[0] {
			r.t.Fatalf("%s: %s returned %+v, step %+v", when, spinArms[i+1], rr, rrs[0])
		}
	}
	if err := orderEqual(r.m[0], r.m[1], r.m[2]); err != nil {
		r.t.Fatalf("%s: %v", when, err)
	}
	enc := encodeMachine(r.m[1].CaptureState())
	if ref := encodeMachine(r.m[3].CaptureState()); !bytes.Equal(enc, ref) || !sameStamps(r.m[1], r.m[3]) {
		r.t.Fatalf("%s: encoded state differs from the no-spin arm's:\nTLB %+v\nvs  %+v",
			when, r.m[1].TLB.captureState(nil), r.m[3].TLB.captureState(nil))
	}
	r.h.Write(enc)
	if r.c.dev != nil {
		want := r.c.dev(r.devs[0])
		for i := range r.m[1:] {
			if got := r.c.dev(r.devs[i+1]); got != want {
				r.t.Fatalf("%s: %s's device %s, step's %s", when, spinArms[i+1], got, want)
			}
		}
	}
	for _, m := range r.m {
		switch rrs[0].Trap {
		case isa.TrapNone, isa.TrapRecovery, isa.TrapExtIntr:
		case isa.TrapITLBMiss, isa.TrapDTLBMiss:
			if e, ok := r.pt[rrs[0].IOR>>isa.PageShift]; ok {
				m.TLB.Insert(e)
			} else {
				m.PC += 4
			}
		case isa.TrapAccess, isa.TrapAlign, isa.TrapMachine, isa.TrapArith:
			m.PC += 4
		default:
			r.t.Fatalf("%s: unexpected trap", when)
		}
		m.PSW &^= isa.PSWR | isa.PSWI
		m.CRs[isa.CRITMR] = 0
		m.WriteCR(isa.CREIRR, 1)
	}
	r.n++
}

// drive runs the schedule: a warm-up that builds the traces, every
// budget from 1 to 3·ilen+1 (ilen: the longest trace built) from each
// source — the caller's limit, the recovery counter, the interval timer
// — and long calls, where a spin has the most to retire.
func (r *spinRig) drive() {
	for range 40 {
		r.call(29, 0, 0)
	}
	top := 3*longestTrace(r.m[1]) + 1
	if top < 4 {
		r.t.Fatalf("longest trace %d: no traces built", longestTrace(r.m[1]))
	}
	for k := uint32(1); k <= top; k++ {
		r.call(uint64(k), 0, 0)
		r.call(1<<20, k, 0)
		r.call(1<<20, 0, k)
	}
	for _, chunk := range []uint64{100, 1000, 4099} {
		for range 12 {
			r.call(chunk, 0, 0)
		}
	}
}

// flagEvery stores v(n) into the flag word at seamData on every third
// call (the completion handler setting IOFLAG).
func flagEvery(v func(n int) uint32) func(m *Machine, _ []any, n int) {
	return func(m *Machine, _ []any, n int) {
		if n%3 == 0 {
			m.StorePhys32(seamData, v(n))
		}
	}
}

func one(int) uint32 { return 1 }

func spinCases() []spinCase {
	const ioSpin = `
	.org 0x3000
loop:
	ldw  r3, 0(r2)            ; the flag the completion handler sets
	beq  r3, r0, loop
	stw  r0, 0(r2)
	addi r5, r5, 1
	b    loop
`
	const statusPoll = `
	.org 0x3000
loop:
	ldw  r3, 0x100(r13)       ; a status latch: pure
	andi r3, r3, 2
	beq  r3, r0, loop
	ldw  r4, 0x200(r13)       ; a counting register: not
	add  r5, r5, r4
	b    loop
`
	// The latch at 0x100 and a counting device at 0x200, on one bus.
	latchPrep := func(m *Machine) []any {
		l, c := &latchBus{}, &countBus{}
		mux := NewBusMux()
		mux.Map("latch", 0x100, 0x10, l)
		mux.Map("count", 0x200, 0x10, c)
		m.Bus = mux
		return []any{l, c}
	}
	latchRelease := func(_ *Machine, devs []any, n int) {
		devs[0].(*latchBus).status = uint32(n%4/3) * 2 // up on every fourth call
	}
	latchDev := func(devs []any) string {
		return fmt.Sprintf("latch %d, counter %+v", devs[0].(*latchBus).status, *devs[1].(*countBus))
	}
	// Popping RX words while they are nonzero; frames arrive every fifth
	// call, forty nonzero words and a zero each.
	nicPrep := func(m *Machine) []any {
		n := nic.New(1 << 16)
		p := n.NewPort(nil)
		mux := NewBusMux()
		mux.Map("nic", 0, nic.Window, p)
		m.Bus = mux
		return []any{n, p}
	}
	nicRelease := func(_ *Machine, devs []any, n int) {
		if n%5 == 0 {
			words := []uint32{uint32(n) + 1}
			for w := range 40 {
				words = append(words, uint32(w+7))
			}
			devs[0].(*nic.NIC).Ingress(append(words, 0))
		}
	}
	nicDev := func(devs []any) string { return fmt.Sprintf("%#x", devs[1].(*nic.Port).StateDigest()) }
	countPrep := func(m *Machine) []any {
		c := &countBus{}
		m.Bus = c
		return []any{c}
	}
	countDev := func(devs []any) string { return fmt.Sprintf("%+v", *devs[0].(*countBus)) }

	allTLBs := []Config{{TLBSize: 4}, {TLBSize: 4, TLBPolicy: "roundrobin"}, {TLBSize: 4, TLBPolicy: "random", TLBSeed: 7}}
	return []spinCase{
		{name: "io-spin/virtual", src: ioSpin, release: flagEvery(one), spins: true},
		{name: "io-spin/real", src: ioSpin, real: true, release: flagEvery(one), spins: true},
		{name: "pure-mmio/virtual", src: statusPoll, prepare: latchPrep, release: latchRelease, dev: latchDev, spins: true},
		{name: "pure-mmio/real", src: statusPoll, real: true, prepare: latchPrep, release: latchRelease, dev: latchDev, spins: true},
		{name: "impure-mmio/count", src: `
	.org 0x3000
loop:
	ldw  r3, 8(r13)           ; every load counts
	andi r3, r3, 64
	beq  r3, r0, loop
	addi r5, r5, 1
	b    loop
`, prepare: countPrep, dev: countDev},
		{name: "impure-mmio/nic-rx-data", src: `
	.org 0x3000
loop:
	ldw  r3, 0xC(r13)         ; RegRxData: pops
	bne  r3, r0, loop
	addi r5, r5, 1
	b    loop
`, real: true, prepare: nicPrep, release: nicRelease, dev: nicDev},
		{name: "loop-carried", src: `
	.org 0x3000
loop:
	ldw  r3, 0(r2)
	addi r7, r7, 1            ; read first and written: carried
	beq  r3, r0, loop
	stw  r0, 0(r2)
	b    loop
`, release: flagEvery(one)},
		{name: "two-pages", src: `
	.org 0x3000
loop:
	ldw  r3, 0(r2)            ; two data pages, alternating
	ldw  r4, 0(r8)
	or   r3, r3, r4
	beq  r3, r0, loop
	stw  r0, 0(r2)
	stw  r0, 0(r8)
	addi r10, r10, 1
	andi r9, r10, 3
	bne  r9, r0, loop
	ldw  r9, 0(r11)           ; every fourth pass two more: a 4-slot TLB evicts
	ldw  r9, 0x1000(r11)
	b    loop
`, tlbs: allTLBs, release: func(m *Machine, _ []any, n int) {
			if n%3 == 0 {
				m.StorePhys32(seamData2, 1)
			}
		}},
		{name: "store-in-prefix", src: `
	.org 0x3000
loop:
	ldw  r3, 0(r2)
	ldw  r4, 8(r2)            ; a counter carried through memory
	addi r4, r4, 1
	stw  r4, 8(r2)
	beq  r3, r0, loop
	stw  r0, 0(r2)
	b    loop
`, release: flagEvery(one)},
		{name: "chain-after-window-store/virtual", src: chainSrc, release: flagEvery(one), spins: true},
		{name: "chain-after-window-store/real", src: chainSrc, real: true, release: flagEvery(one), spins: true},
		{name: "div-in-prefix", src: `
	.org 0x3000
loop:
	ldw  r3, 0(r2)
	div  r4, r3, r6           ; r6 = 3: the flag must reach 3
	beq  r4, r0, loop
	stw  r0, 0(r2)
	b    loop
`, prepare: func(m *Machine) []any { m.Regs[6] = 3; return nil },
			release: flagEvery(func(n int) uint32 { return uint32(n % 7) }), spins: true},
	}
}

// chainSrc reaches its spin by chaining from a trace that stored through
// the window into the page the spin reads.
const chainSrc = `
	.org 0x3000
loop:
	ldw  r7, 8(r2)            ; opens the window
	stw  r5, 4(r2)            ; a window store
	b    spin                 ; the trace ends; the next is chained
spin:
	ldw  r3, 0(r2)
	beq  r3, r0, spin
	stw  r0, 0(r2)
	addi r5, r5, 1
	b    loop
`

func TestSpinClosedForm(t *testing.T) {
	for _, c := range spinCases() {
		tlbs := c.tlbs
		if tlbs == nil {
			tlbs = []Config{{TLBSize: 4}, {TLBSize: 4, TLBPolicy: "roundrobin"}}
		}
		for _, cfg := range tlbs {
			t.Run(c.name+"/"+cfg.withDefaults().TLBPolicy, func(t *testing.T) {
				r := newSpinRig(t, &c, cfg)
				r.drive()
				t.Logf("spin-fnv %016x", r.h.Sum64())
				spun := r.m[1].MemoStats().Spun
				switch {
				case r.m[0].Cycles() < 20_000:
					t.Fatalf("%d instructions in %d calls: the scenario hardly ran", r.m[0].Cycles(), r.n)
				case r.m[3].MemoStats().Spun != 0 || r.m[0].MemoStats().Spun != 0 || r.m[2].MemoStats().Spun != 0:
					t.Fatal("an arm other than Run retired a spin in closed form")
				case c.spins && spun == 0:
					t.Fatal("the traced arm retired nothing in closed form")
				case !c.spins && spun != 0:
					t.Fatalf("the traced arm retired %d instructions of a loop that can change something in closed form", spun)
				}
				if c.spins && len(r.devs[0]) > 0 {
					step := r.devs[0][0].(*latchBus)
					// A pure device's loads are skipped, not replayed.
					if l := r.devs[1][0].(*latchBus).loads; l >= step.loads {
						t.Fatalf("the traced arm made %d latch loads, step %d", l, step.loads)
					}
				}
			})
		}
	}
}

// TestSpinPrefix pins what the build-time pass admits: io_spin's shape
// up to its store, sv_loop's status poll whole, and a counting loop or a
// pointer walk nothing from the op that carries on.
func TestSpinPrefix(t *testing.T) {
	for _, c := range []struct {
		src  string
		want int
	}{
		{"ldw r3, 0(r2)\nbeq r3, r0, top\nstw r0, 0(r2)\naddi r5, r5, 1", 2},
		{"ldw r3, 8(r13)\nandi r3, r3, 2\nbeq r3, r0, top\nldw r14, 16(r13)\nli r15, 0", 5},
		{"addi r4, r4, 1\nbne r4, r0, top", 0},
		{"ldw r3, 0(r3)\nbne r3, r0, top", 0},
		{"li r3, 0x800\nldw r3, 0(r3)\nbl r31, top", 4},
		{"ldw r3, 0(r2)\nbv r3", 2},
		{"ldw r3, 0(r2)\ndiv r4, r3, r6\nbeq r4, r0, top\nadd r6, r6, r4", 3},
		{"ldw r3, 0(r2)\nstw r3, 4(r2)\nbeq r3, r0, top", 1},
	} {
		p, err := asm.Assemble("prefix.s", "top:\n"+c.src+"\nhalt\n")
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{MemBytes: 0x10000})
		m.LoadProgram(p.Origin, p.Words, 0)
		if tr := m.buildTrace(m.execPage(0), 0, 0); tr == nil || tr.spin != c.want {
			t.Errorf("%q: trace %+v, want a spin prefix of %d", c.src, tr, c.want)
		}
	}
}
