package machine

// The data window's seams. The trace executor serves a load or store
// from the window — one frame access, no TLB, no invalidation — exactly
// when the slow path would have found nothing to do but count a hit;
// these scenarios stand on each edge of that condition. Three machines
// run every scenario in lockstep, chunk by chunk: Step (the spec), Run,
// and Run under NoTraces. After every chunk all three must agree on
// every byte of the encoded CaptureState() once recency is reduced to what
// traces promise — the ORDER of last-touch events, not the LRU clock
// (the memo tests hold the clock itself; see memo.go) — and the orders
// must agree too (sameRecency).

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

const (
	seamCode  = 0x3000 // the program's page, identity-mapped RWX
	seamAlias = 0x9000 // a second, RW mapping of the program's page
	seamData  = 0x5000 // RW data, identity-mapped
	seamData2 = 0x6000 // RW data, identity-mapped
	seamRO    = 0x7000 // read-only data, identity-mapped
	seamSpare = 0xA000 // two more RW pages, to make a 4-slot TLB evict
	seamDevVA = 0x00F00000
)

type seamRig struct {
	t    *testing.T
	name [3]string
	m    [3]*Machine
	// pt is what the driver's miss handler maps, by virtual page; an
	// access to any other page is stepped over.
	pt map[uint32]TLBEntry
}

// newSeamRig assembles src and boots three machines at seamCode, PL 0,
// in virtual mode unless real. With cow the machines (and a sibling that
// never runs, returned by the second result) are copy-on-write over one
// shared image of the program; otherwise the program is stored into
// them and its pages are private from the start.
func newSeamRig(t *testing.T, cfg Config, src string, real, cow bool) (*seamRig, *Machine) {
	t.Helper()
	p, err := asm.Assemble("seam.s", src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 0x10000
	}
	if cow {
		cfg.Image = ProgramImage(p.Origin, p.Words, cfg.MemBytes)
	}
	off := cfg
	off.NoTraces = true
	r := &seamRig{t: t, name: [3]string{"step", "run", "run-notraces"},
		m: [3]*Machine{New(cfg), New(cfg), New(off)}, pt: seamPageTable(cfg.MemBytes)}
	for _, m := range r.m {
		if !cow {
			m.LoadProgram(p.Origin, p.Words, seamCode)
		}
		m.PC = seamCode
		m.Bus = &countBus{}
		if !real {
			m.PSW = isa.PSWV
		}
	}
	return r, New(cfg)
}

// seamPageTable is what a driver's miss handler maps, by virtual page:
// the program's page and a second mapping of it, RW data pages, a
// read-only one, two spares, the device window, and the last page of a
// RAM of memBytes when RAM ends inside it.
func seamPageTable(memBytes uint32) map[uint32]TLBEntry {
	pt := map[uint32]TLBEntry{}
	rw := uint32(isa.TLBRead | isa.TLBWrite)
	for _, e := range []TLBEntry{
		{VPN: seamCode >> isa.PageShift, PPN: seamCode >> isa.PageShift, Flags: rw | isa.TLBExec},
		{VPN: seamAlias >> isa.PageShift, PPN: seamCode >> isa.PageShift, Flags: rw},
		{VPN: seamData >> isa.PageShift, PPN: seamData >> isa.PageShift, Flags: rw},
		{VPN: seamData2 >> isa.PageShift, PPN: seamData2 >> isa.PageShift, Flags: rw},
		{VPN: seamRO >> isa.PageShift, PPN: seamRO >> isa.PageShift, Flags: isa.TLBRead},
		{VPN: seamSpare >> isa.PageShift, PPN: seamSpare >> isa.PageShift, Flags: rw},
		{VPN: seamSpare>>isa.PageShift + 1, PPN: seamSpare>>isa.PageShift + 1, Flags: rw},
		{VPN: seamDevVA >> isa.PageShift, PPN: MMIOBase >> isa.PageShift, Flags: rw},
		// The last page of RAM when RAM ends inside it (see lastPage).
		{VPN: 0xB0, PPN: memBytes >> isa.PageShift, Flags: rw},
	} {
		pt[e.VPN] = e
	}
	return pt
}

// longestTrace is the length in instructions of the longest trace m
// holds (0: none).
func longestTrace(m *Machine) uint32 {
	n := uint32(0)
	for _, pg := range m.pages {
		if pg == nil {
			continue
		}
		for _, tr := range pg.traces {
			n = max(n, tr.ilen)
		}
	}
	return n
}

func (r *seamRig) each(f func(m *Machine)) {
	for _, m := range r.m {
		f(m)
	}
}

// run drives the arms to HALT and compares them after every call: a
// call ends at the first trap or after chunk instructions, so the arms
// are also compared as each trap leaves them, before the driver acts on
// it — it maps a missing page the page table knows and steps over any
// other faulting instruction.
func (r *seamRig) run(chunk uint64) {
	r.t.Helper()
	for n := 0; !r.m[0].Halted(); n++ {
		if n > 1<<17 {
			r.t.Fatalf("no HALT after %d calls (pc %#x)", n, r.m[0].PC)
		}
		var res [3]StepResult
		res[0] = stepRun(r.m[0], chunk).StepResult
		res[1] = r.m[1].Run(chunk).StepResult
		res[2] = r.m[2].Run(chunk).StepResult
		when := fmt.Sprintf("call %d (chunk %d, %v at %#x)", n, chunk, res[0].Trap, r.m[0].PC)
		if res[1] != res[0] || res[2] != res[0] {
			r.t.Fatalf("%s: step %+v\nrun %+v\nrun-notraces %+v", when, res[0], res[1], res[2])
		}
		r.compare(when)
		for _, m := range r.m {
			switch res[0].Trap {
			case isa.TrapNone:
			case isa.TrapITLBMiss, isa.TrapDTLBMiss:
				if e, ok := r.pt[res[0].IOR>>isa.PageShift]; ok {
					m.TLB.Insert(e)
				} else {
					m.PC += 4
				}
			case isa.TrapAccess, isa.TrapAlign, isa.TrapMachine:
				m.PC += 4
			default:
				r.t.Fatalf("%s: unexpected trap", when)
			}
		}
	}
}

func (r *seamRig) compare(when string) {
	r.t.Helper()
	if err := orderEqual(r.m[0], r.m[1], r.m[2]); err != nil {
		r.t.Fatalf("%s: %v", when, err)
	}
}

// orderEqual compares Run and Run-NoTraces with Step as traces promise:
// every byte of the encoded state once recency is reduced to its order,
// and the orders themselves (sameRecency against Step, equal between the
// two runs).
func orderEqual(step, run, noTraces *Machine) error {
	ref := step.CaptureState()
	for i, m := range []*Machine{run, noTraces} {
		name := [2]string{"run", "run-notraces"}[i]
		st := m.CaptureState()
		if a, b := encodeMachine(orderOnly(ref)), encodeMachine(orderOnly(st)); !bytes.Equal(a, b) {
			return fmt.Errorf("%s differs from step: pc %#x vs %#x, cycles %d vs %d\nregs %v\nvs   %v\nstats %+v vs %+v\nTLB %+v\nvs  %+v",
				name, st.PC, ref.PC, st.Cycles, ref.Cycles, st.Regs, ref.Regs, st.Stats, ref.Stats, st.TLB, ref.TLB)
		}
		if err := sameRecency(ref.TLB, st.TLB); err != nil {
			return fmt.Errorf("%s vs step: %v\nTLB %+v\nvs  %+v", name, err, st.TLB, ref.TLB)
		}
	}
	if a, b := recency(run.CaptureState().TLB), recency(noTraces.CaptureState().TLB); !slices.Equal(a, b) {
		return fmt.Errorf("recency order with traces %v, without %v", a, b)
	}
	return nil
}

// orderOnly strips the state of what only the order of touches is
// promised for: the LRU clock, the stamps, the deferred touch.
func orderOnly(s State) State {
	s.TLB.Slots = slices.Clone(s.TLB.Slots)
	for i := range s.TLB.Slots {
		s.TLB.Slots[i].LastUse = 0
	}
	s.TLB.Stamp, s.TLB.Pending = 0, -1
	return s
}

// recency lists the touched slots, least recently used first; a
// deferred fetch touch is applied before anything else is, so its slot
// is the most recent.
func recency(s TLBState) []int {
	var order []int
	for i, sl := range s.Slots {
		if sl.LastUse != 0 && i != s.Pending {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Compare(s.Slots[a].LastUse, s.Slots[b].LastUse)
	})
	if s.Pending >= 0 {
		order = append(order, s.Pending)
	}
	return order
}

// sameRecency compares Step's recency with Run's. Run defers the fetch
// touch of the page it executes — the slot is re-armed behind every data
// access, where Step touches it at the next fetch — so between
// instructions that one slot may stand one place earlier under Step
// than under Run; every other slot must stand in the same order.
func sameRecency(step, run TLBState) error {
	a, b := recency(step), recency(run)
	if f := run.Pending; f >= 0 {
		if i := slices.Index(a, f); i >= 0 && i < len(a)-2 {
			return fmt.Errorf("fetch slot %d is not among step's two most recent: %v", f, a)
		}
		a = slices.DeleteFunc(a, func(s int) bool { return s == f })
		b = slices.DeleteFunc(b, func(s int) bool { return s == f })
	}
	if !slices.Equal(a, b) {
		return fmt.Errorf("recency order %v, step's %v", b, a)
	}
	return nil
}

var seamTLBs = []Config{
	{TLBSize: 4},
	{TLBSize: 4, TLBPolicy: "roundrobin"},
}

// seams runs one scenario under both deterministic policies and a
// spread of chunk sizes: prepare sets registers on a fresh rig, check
// looks at the arms after HALT (sibling: the machine that never ran).
func seams(t *testing.T, cfg Config, src string, real, cow bool, prepare func(m *Machine), check func(t *testing.T, r *seamRig, sibling *Machine)) {
	t.Helper()
	for _, tlb := range seamTLBs {
		for _, chunk := range []uint64{3, 29, 1 << 20} {
			c := cfg
			c.TLBSize, c.TLBPolicy = tlb.TLBSize, tlb.TLBPolicy
			t.Run(fmt.Sprintf("%s/chunk%d", c.withDefaults().TLBPolicy, chunk), func(t *testing.T) {
				r, sibling := newSeamRig(t, c, src, real, cow)
				r.each(prepare)
				r.run(chunk)
				if longestTrace(r.m[1]) == 0 {
					t.Fatal("the traced arm built no trace")
				}
				if check != nil {
					check(t, r, sibling)
				}
			})
		}
	}
}

func TestTraceWindowSeams(t *testing.T) {
	// A store through the window's page into a word that has something
	// decoded on it must leave the window: the executing page, reached
	// through a second mapping, with the store landing on a slot that is
	// decoded only (the prologue's second nop), entry-marked (start) and
	// inside the running trace (patch, which it rewrites — the new
	// instruction must take effect on the very next pass, as under Step).
	t.Run("second-mapping", func(t *testing.T) {
		const src = `
	.org 0x3000
start:
	nop
	nop
	nop
loop:
	stw  r6, 0x800(r2)        ; plain data on the page: opens the window
	ldw  r7, 0x800(r2)
patch:
	addi r5, r5, 1
	stw  r5, 0x804(r2)
	andi r9, r10, 15
	bne  r9, r0, skip
	stw  r11, patch-start(r2) ; rewrite patch inside its own trace
	xor  r11, r11, r12
	stw  r13, 4(r2)           ; decoded, never traced
	stw  r13, 0(r2)           ; entry-marked
skip:
	addi r6, r6, 3
	addi r10, r10, -1
	bne  r10, r0, loop
	halt
alt:
	addi r5, r5, 2
`
		p := asm.MustAssemble("seam.s", src)
		word := func(sym string) uint32 { return p.Words[(p.MustSymbol(sym)-p.Origin)/4] }
		seams(t, Config{}, src, false, false, func(m *Machine) {
			m.Regs[2], m.Regs[10] = seamAlias, 200
			m.Regs[11], m.Regs[12] = word("alt"), word("alt")^word("patch")
			m.Regs[13] = word("start")
		}, func(t *testing.T, r *seamRig, _ *Machine) {
			// patch runs before its pass's rewrite, which toggles it
			// between +1 and +2 on every 16th pass.
			want, inc := uint32(0), uint32(1)
			for pass := uint32(200); pass > 0; pass-- {
				want += inc
				if pass&15 == 0 {
					inc = 3 - inc
				}
			}
			if got := r.m[0].Regs[5]; got != want {
				t.Fatalf("r5 = %d, want %d: a rewritten instruction did not take effect on the next pass", got, want)
			}
			pg := r.m[1].pages[seamCode>>isa.PageShift]
			if pg.decodedAt(4) || pg.decodedAt(0) {
				t.Fatal("stores through the alias left their slots decoded or marked")
			}
		})
	})

	// The first store to a page still shared with the base image faults
	// it private (out of line: the window is read-only until then); the
	// stores after it go through the window into the private frame. A
	// store of the value already there leaves the page shared. The
	// sibling over the same image sees none of it.
	t.Run("cow", func(t *testing.T) {
		const src = `
	.org 0x3000
loop:
	ldw  r7, 0(r2)            ; shared page: read window
	stw  r0, 4(r2)            ; zero onto zero: stays shared
	stw  r10, 8(r2)           ; first pass: COW fault; then the window
	stw  r10, 12(r2)
	ldw  r8, 8(r2)
	add  r5, r5, r8
	sth  r10, 18(r2)
	stb  r10, 21(r2)
	ldh  r8, 18(r2)
	ldb  r9, 21(r2)
	add  r5, r5, r8
	add  r5, r5, r9
	addi r10, r10, -1
	bne  r10, r0, loop
	halt
`
		seams(t, Config{}, src, false, true, func(m *Machine) {
			m.Regs[2], m.Regs[10] = seamData, 100
		}, func(t *testing.T, r *seamRig, sibling *Machine) {
			fresh := New(sibling.Config())
			if sibling.DigestMemory() != fresh.DigestMemory() || sibling.SharedPages() != fresh.SharedPages() {
				t.Fatal("the sibling's RAM moved")
			}
			for i, m := range r.m {
				if got := fresh.SharedPages() - m.SharedPages(); got != 1 {
					t.Fatalf("%s faulted %d pages private, want the one data page", r.name[i], got)
				}
			}
		})
	})

	// Pages that are never windowed: the MMIO window (every access goes
	// to the bus, which counts them) and the last page of a RAM that ends
	// inside it (an access past the end machine-checks, one before it
	// does not). Both in virtual mode and in real mode.
	const devSrc = `
	.org 0x3000
loop:
	ldw  r9, 0(r4)            ; plain RAM: a window
	ldw  r7, 8(r2)            ; device: the window closes
	ldw  r9, 0(r4)            ; so this one is out of line, and touches
	add  r5, r5, r7
	stw  r5, 12(r2)
	stw  r5, 0(r4)
	ldw  r8, 0x40(r3)         ; last page, inside RAM
	stw  r5, 0x44(r3)
	ldw  r8, 0x200(r3)        ; last page, past the end: machine check
	stw  r5, 0x204(r3)
	add  r5, r5, r8
	addi r10, r10, -1
	bne  r10, r0, loop
	halt
`
	devCheck := func(t *testing.T, r *seamRig, _ *Machine) {
		for i, m := range r.m {
			if b := m.Bus.(*countBus); b.loads != 50 || b.stores != 50 {
				t.Fatalf("%s: the bus saw %d loads and %d stores, want 50 of each", r.name[i], b.loads, b.stores)
			}
		}
	}
	lastPage := Config{MemBytes: 0x10000 + 0x100}
	t.Run("never-windowed/virtual", func(t *testing.T) {
		seams(t, lastPage, devSrc, false, false, func(m *Machine) {
			m.Regs[2], m.Regs[3], m.Regs[4], m.Regs[10] = seamDevVA, 0xB0000, seamData, 50
		}, devCheck)
	})
	t.Run("never-windowed/real", func(t *testing.T) {
		seams(t, lastPage, devSrc, true, false, func(m *Machine) {
			m.Regs[2], m.Regs[3], m.Regs[4], m.Regs[10] = MMIOBase, 0x10000, seamData, 50
		}, devCheck)
	})

	// Faults inside an established window replay Step's trap-time touch
	// order: misaligned accesses (alignment comes before translation: no
	// touch at all, whatever page they name), a store to the read-only
	// page the window is reading, and loads whose destination is r0,
	// which discard the value and keep every fault. Between them the
	// window moves from the writable page to the read-only one and back
	// with no trap in between, so nothing but retired re-derives it.
	t.Run("faults-in-window", func(t *testing.T) {
		const src = `
	.org 0x3000
loop:
	ldw  r7, 0(r2)            ; opens the window on the RW page
	ldw  r0, 4(r2)            ; r0 destination: a hit, the value is dropped
	add  r5, r5, r0
	ldw  r8, 0(r3)            ; moves the window to the read-only page
	ldb  r9, 5(r3)
	stw  r5, 12(r2)           ; and back: not into the read-only frame
	ldw  r8, 0(r3)
	ldw  r0, 4(r2)            ; r0 destination, out of line
	add  r5, r5, r0
	ldw  r7, 2(r2)            ; misaligned in the window
	stw  r7, 6(r2)
	ldh  r7, 1(r2)
	ldw  r0, 3(r2)            ; r0 destination: still misaligned
	ldw  r8, 0(r3)
	stw  r8, 8(r3)            ; read-only: access trap inside the window
	ldb  r9, 5(r3)
	sth  r8, 8(r3)
	ldw  r8, 0(r3)
	ldw  r7, 2(r2)            ; misaligned on another page than the window's
	ldw  r7, 2(r4)            ; ... and on an unmapped one: alignment first
	ldw  r0, 0(r4)            ; r0 destination, unmapped page: still misses
	stw  r5, 0(r2)
	add  r5, r5, r9
	addi r5, r5, 1
	addi r10, r10, -1
	bne  r10, r0, loop
	halt
`
		seams(t, Config{}, src, false, false, func(m *Machine) {
			m.Regs[2], m.Regs[3], m.Regs[4], m.Regs[10] = seamData, seamRO, 0xE000, 60
			m.StorePhys32(seamRO+4, 0x00000700)
			m.StorePhys32(seamData+4, 0xDEADBEEF) // what the r0 loads discard
		}, nil)
	})

	// Window thrash: two data pages alternating on every access, and two
	// more touched every few passes so a 4-slot TLB keeps evicting. The
	// window is re-derived on every access; every victim the LRU picks
	// must be Step's.
	t.Run("thrash", func(t *testing.T) {
		const src = `
	.org 0x3000
loop:
	ldw  r7, 0(r2)
	stw  r7, 4(r3)
	ldw  r8, 4(r3)
	stw  r8, 0(r2)
	ldb  r9, 9(r2)
	stb  r9, 9(r3)
	addi r7, r7, 5
	stw  r7, 0(r2)
	andi r9, r10, 3
	bne  r9, r0, skip
	stw  r10, 0(r4)
	ldw  r11, 0x1000(r4)
	add  r5, r5, r11
skip:
	add  r5, r5, r8
	addi r10, r10, -1
	bne  r10, r0, loop
	halt
`
		seams(t, Config{}, src, false, false, func(m *Machine) {
			m.Regs[2], m.Regs[3], m.Regs[4], m.Regs[10] = seamData, seamData2, seamSpare, 120
		}, func(t *testing.T, r *seamRig, _ *Machine) {
			if ev := r.m[0].TLB.Stats.Evicts; ev < 50 {
				t.Fatalf("only %d evictions: the TLB was not under pressure", ev)
			}
		})
	})
}
