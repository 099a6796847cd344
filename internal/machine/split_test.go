package machine_test

// The budget-split differential. Run's path does not depend on its
// budget — a trace that does not fit runs the ops that do (trace.fit) —
// and every path leaves the same TLB order, which is what the capture
// encodes; so where a call is cut cannot show in the machine's bytes.
// From each entry state below, and for every a from 1 to twice the
// longest trace built, four machines that stand alike at the entry run
// the same span of a+b instructions: one as Run(a) and then Run(b) (and
// whatever further calls the traps in between take), one as Run(a+b),
// one the same under NoTraces, and one by Steps. The three Run arms must
// encode byte for byte alike, and Step must agree with them as it always
// has (machine.OrderEqual): Run defers the touch of the page it fetches
// from and re-arms it behind every data access, where Step touches it at
// the next fetch, so between two instructions that one slot may stand a
// place apart.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/snapshot"
)

type splitCase struct {
	name string
	cfg  machine.Config
	// load puts the program in m and points PC at its entry.
	load func(m *machine.Machine)
	// warm is how far the program runs before the first entry state.
	warm uint64
	// dev wires a fuzzDev, the status latch the timer handler sets.
	dev bool
	// spins: the traced arms must retire spin iterations in closed form.
	spins bool
}

// splitAsm loads a program assembled after fuzzVectors and entered at boot.
func splitAsm(vec, src string) func(m *machine.Machine) {
	return func(m *machine.Machine) {
		p, err := asm.Assemble("split.s", vec+src)
		if err != nil {
			panic(err)
		}
		m.LoadProgram(p.Origin, p.Words, p.MustSymbol("boot"))
	}
}

func splitCases() []splitCase {
	// Compare+branch pairs that fuse, so a cut falls between the two
	// instructions of one.
	const fused = `
boot:
	li   r1, 0x1000
	mtctl cr14, r1
	li   r20, 100000
loop:
	andi r3, r20, 1
	beq  r3, r0, f1
	addi r4, r4, 3
f1:
	slti r5, r4, 100
	bne  r5, r0, f2
	xor  r4, r4, r4
f2:
	addi r6, r6, 1
	andi r7, r6, 7
	bne  r7, r0, f3
	sub  r8, r8, r6
f3:
	addi r20, r20, -1
	bne  r20, r0, loop
	halt
`
	// In virtual mode on a 4-slot TLB: a load and a store through the
	// window, a load that misses on one of two pages taking turns (the
	// handler maps it), a store to a read-only page and a division by
	// zero (the handler skips both).
	const traps = `
boot:
	li   r1, 0x1000
	mtctl cr14, r1
	li   r1, 0x3005           ; code: R|X
	li   r2, 0x3000
	itlbi r1, r2
	li   r1, 0x8003           ; data: R|W
	li   r2, 0x8000
	itlbi r1, r2
	li   r1, 0x9001           ; data: R
	li   r2, 0x9000
	itlbi r1, r2
	li   r16, 0x8000
	li   r17, 0x9000
	li   r18, 0xA000
	li   r20, 100000
	li   r1, 8                ; IPSW: PSW.V, PL 0
	mtctl cr22, r1
	li   r1, vbody
	mtctl cr23, r1
	rfi
	.align 4096
vbody:
	ldw  r1, 0(r16)
	addi r1, r1, 1
	stw  r1, 0(r16)
	ldw  r2, 0(r18)
	xori r18, r18, 0x1000
	stw  r2, 4(r17)
	div  r3, r1, r0
	div  r9, r16, r1
	add  r4, r4, r9
	addi r20, r20, -1
	bne  r20, r0, vbody
	halt
`
	// Waits the timer handler ends: it sets the flag word and the latch.
	spinBoot := fmt.Sprintf(`
boot:
	li   r1, 0x1000
	mtctl iva, r1
	li   r19, %#x
	li   r20, 100000
	li   r1, 1
	mtctl eiem, r1
	li   r1, %d
	mtctl itmr, r1
	li   r1, %d
	mtctl ipsw, r1           ; PL 0, untranslated, interrupts on
	li   r1, loop
	mtctl iia, r1
	rfi
`, machine.MMIOBase, fuzzTimerVal, isa.PSWI)
	const flagSpin = `
loop:
	ldw  r3, 0x800(r0)        ; the flag word
	andi r3, r3, 16
	beq  r3, r0, loop
	stw  r0, 0x800(r0)
	addi r20, r20, -1
	bne  r20, r0, loop
	halt
`
	const latchPoll = `
loop:
	ldw  r3, 0(r19)           ; the latch: a pure load
	andi r3, r3, 16
	beq  r3, r0, loop
	stw  r0, 0(r19)
	addi r20, r20, -1
	bne  r20, r0, loop
	halt
`
	small := machine.Config{MemBytes: 1 << 20}
	return []splitCase{
		{name: "cpu-mix", cfg: machine.Config{MemBytes: 1 << 20, TLBSize: 8}, warm: 200_000, load: func(m *machine.Machine) {
			p := guest.Program()
			m.LoadProgram(p.Origin, p.Words, 0)
			guest.Configure(m, guest.CPUIntensive(1<<20))
		}},
		{name: "fused", cfg: small, warm: 5000, load: splitAsm(fuzzVectors(false, false, false), fused)},
		{name: "traps", cfg: machine.Config{MemBytes: 1 << 20, TLBSize: 4}, warm: 5000, load: splitAsm(fuzzVectors(true, false, false), traps)},
		{name: "spin", cfg: small, warm: 5000, load: splitAsm(fuzzVectors(false, false, true), spinBoot+flagSpin), dev: true, spins: true},
		{name: "pure-mmio", cfg: small, warm: 5000, load: splitAsm(fuzzVectors(false, false, true), spinBoot+latchPoll), dev: true, spins: true},
	}
}

// runSpan advances m by n retired instructions on Run, delivering traps
// as runChunk does, with its first call limited to first.
func runSpan(m *machine.Machine, first, n uint64) {
	target := m.Cycles() + n
	for limit := first; m.Cycles() < target && !m.Halted(); limit = n {
		rr := m.Run(min(limit, target-m.Cycles()))
		if rr.Trap != isa.TrapNone {
			m.DeliverTrap(rr.Trap, rr.ISR, rr.IOR)
		}
	}
}

func encodeState(m *machine.Machine) []byte {
	w := snapshot.NewWriter("SPLITTST")
	ms := m.CaptureState()
	ms.Code(w.Codec())
	return w.Finish()
}

func TestRunBudgetSplit(t *testing.T) {
	for _, c := range splitCases() {
		t.Run(c.name, func(t *testing.T) {
			tmpl := machine.New(c.cfg)
			var tmplDev fuzzDev
			if c.dev {
				tmpl.Bus = &tmplDev
			}
			c.load(tmpl)
			runChunk(tmpl, c.warm)
			for entry := 0; entry < 4; entry++ {
				runChunk(tmpl, 997) // the next entry state, elsewhere in the program
				if c.name == "cpu-mix" && tmpl.PSW&isa.PSWV == 0 {
					t.Fatal("the guest is not in virtual mode")
				}
				state, dev := tmpl.CaptureState(), tmplDev
				top := 2 * uint64(machine.LongestTrace(tmpl))
				if top == 0 {
					t.Fatal("no trace built")
				}
				b := top + 64
				var spun, traps uint64
				for a := uint64(1); a <= top; a++ {
					// Every arm is restored from the entry state and runs the
					// same calls to build its traces again, so the traced
					// arms stand alike to the last derived bit.
					var ms [4]*machine.Machine
					var devs [4]fuzzDev
					for i := range ms {
						cfg := c.cfg
						cfg.NoTraces = i == 2
						ms[i] = machine.New(cfg)
						if err := ms[i].RestoreState(state); err != nil {
							t.Fatal(err)
						}
						if devs[i] = dev; c.dev {
							ms[i].Bus = &devs[i]
						}
						runChunk(ms[i], 3000)
					}
					split, whole, noTraces, step := ms[0], ms[1], ms[2], ms[3]
					spun0, traps0 := whole.MemoStats().Spun, whole.Stats.Traps
					runSpan(split, a, a+b)
					runSpan(whole, a+b, a+b)
					runSpan(noTraces, a+b, a+b)
					stepChunk(step, a+b)
					spun += whole.MemoStats().Spun - spun0
					traps += whole.Stats.Traps - traps0
					at := fmt.Sprintf("entry %d, a=%d, b=%d (pc %#x)", entry, a, b, whole.PC)
					enc := encodeState(whole)
					if !bytes.Equal(encodeState(split), enc) {
						t.Fatalf("%s: Run(a) then Run(b) encodes otherwise than Run(a+b):\nsplit %+v\nwhole %+v",
							at, split.CaptureState().TLB, whole.CaptureState().TLB)
					}
					if !bytes.Equal(encodeState(noTraces), enc) {
						t.Fatalf("%s: Run under NoTraces encodes otherwise than Run:\nno traces %+v\ntraces    %+v",
							at, noTraces.CaptureState().TLB, whole.CaptureState().TLB)
					}
					if err := machine.OrderEqual(step, whole, noTraces); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if devs[0] != devs[3] || devs[1] != devs[3] || devs[2] != devs[3] {
						t.Fatalf("%s: devices %+v, step's %+v", at, devs[:3], devs[3])
					}
				}
				t.Logf("entry %d at %#x: a up to %d, b %d; in the spans the traced arm took %d traps and spun %d instructions", entry, tmpl.PC, top, b, traps, spun)
				if c.spins && spun == 0 {
					t.Fatalf("entry %d: no spin retired in closed form", entry)
				}
			}
		})
	}
}
