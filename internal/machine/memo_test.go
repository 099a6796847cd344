package machine

// The polling differential: the run memo against the executors it
// shortcuts. A guest spins on an instruction that traps; the driver does
// with the trap what the hypervisor does with an environment instruction
// — writes a value it supplies to Rd and steps the PC — instead of
// delivering it. Four machines run every call in lockstep: Step (the
// spec), Run under NoTraces, Run with the memo disabled, Run with it on.
// All four must agree on the result, Digest, Stats, TLB.Stats and cycle
// count after every call; the last two on every byte of
// the encoded CaptureState() and on the LRU clock and stamps behind it
// (sameStamps), which is what "stamp-exact" means: not even the clock,
// which the encoding reduces to an order, can tell a replayed call from
// an executed one.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

const (
	pollRAM   = 0x10000    // 16 pages
	pollCode  = 0x3000     // the spin loop's page (identity-mapped)
	pollData  = 0x8000     // a data page the guest may store to
	pollDevVA = 0x00F00000 // mapped onto the MMIO window, as the guest kernel maps it
	pollEpoch = 100        // instructions between recovery traps
)

// pollSpin is wl_serve's status poll: the load traps (MMIO at PL 1), the
// driver supplies the status, and the loop goes round until bit 1 comes
// up — then counts it with a guest store and polls again.
const pollSpin = `
	.org 0x3000
spin:
	ldw  r3, 8(r13)
	andi r3, r3, 2
	beq  r3, r0, spin
	addi r5, r5, 1
	stw  r5, 0(r14)
	b    spin
`

type pollArm struct {
	name string
	m    *Machine
	run  func(m *Machine, limit uint64) RunResult
}

type pollRig struct {
	t    *testing.T
	arms [4]pollArm
	prog *asm.Program
	// pt is what the driver's miss handler maps, by virtual page.
	pt map[uint32]TLBEntry
	// remaining is the epoch's instruction budget the driver writes to
	// RCTR before every call, as the hypervisor does (0: not armed).
	remaining uint32
	calls     int
}

func stepRun(m *Machine, limit uint64) (rr RunResult) {
	for rr.Executed < limit {
		before := m.Cycles()
		res := m.Step()
		rr.Executed += m.Cycles() - before
		if res != (StepResult{}) {
			rr.StepResult = res
			break
		}
	}
	return rr
}

func memoRun(m *Machine, limit uint64) RunResult { return m.Run(limit) }

func noMemoRun(m *Machine, limit uint64) RunResult {
	debugNoMemo = true
	defer func() { debugNoMemo = false }()
	return m.Run(limit)
}

// newPollRig assembles src and boots four machines at its first word:
// PL 1 with the recovery counter on, in virtual mode (the driver maps
// pages as they miss, the device page onto the MMIO window) or in real
// mode (r13 at the window itself).
func newPollRig(t *testing.T, cfg Config, src string, virt bool) *pollRig {
	t.Helper()
	p, err := asm.Assemble("poll.s", src)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = pollRAM
	}
	off := cfg
	off.NoTraces = true
	r := &pollRig{t: t, prog: p, remaining: pollEpoch, arms: [4]pollArm{
		{"step", New(cfg), stepRun},
		{"run-notraces", New(off), memoRun},
		{"run-nomemo", New(cfg), noMemoRun},
		{"run-memo", New(cfg), memoRun},
	}}
	const user = 3 << isa.TLBPLShift
	r.pt = map[uint32]TLBEntry{}
	for _, e := range []TLBEntry{
		{VPN: pollCode >> isa.PageShift, PPN: pollCode >> isa.PageShift, Flags: isa.TLBRead | isa.TLBWrite | isa.TLBExec | user},
		{VPN: pollCode>>isa.PageShift + 1, PPN: pollCode>>isa.PageShift + 1, Flags: isa.TLBRead | isa.TLBExec | user},
		{VPN: pollData >> isa.PageShift, PPN: pollData >> isa.PageShift, Flags: isa.TLBRead | isa.TLBWrite | user},
		{VPN: pollDevVA >> isa.PageShift, PPN: MMIOBase >> isa.PageShift, Flags: isa.TLBRead | isa.TLBWrite | user},
	} {
		r.pt[e.VPN] = e
	}
	r.each(func(m *Machine) {
		m.LoadProgram(p.Origin, p.Words, p.Origin)
		m.PSW = isa.PSWR | 1
		m.Regs[13], m.Regs[14] = MMIOBase, pollData
		if virt {
			m.PSW |= isa.PSWV
			m.Regs[13] = pollDevVA
		}
	})
	return r
}

func (r *pollRig) each(f func(m *Machine)) {
	for _, a := range r.arms {
		f(a.m)
	}
}

func (r *pollRig) memo() MemoStats { return r.arms[3].m.MemoStats() }

// call makes one Run call on every arm — RCTR as the hypervisor arms it,
// unless rctr overrides — lets the driver act on how it ended (value is
// what an emulated instruction reads), and compares the arms.
func (r *pollRig) call(limit uint64, value uint32) RunResult { return r.callRCTR(0, limit, value) }

func (r *pollRig) callRCTR(rctr uint32, limit uint64, value uint32) RunResult {
	r.t.Helper()
	if rctr == 0 {
		rctr = r.remaining
	}
	var rrs [4]RunResult
	for i, a := range r.arms {
		m := a.m
		m.CRs[isa.CRRCTR] = rctr
		rr := a.run(m, limit)
		rrs[i] = rr
		switch rr.Trap {
		case isa.TrapNone, isa.TrapRecovery:
		case isa.TrapExtIntr:
			m.WriteCR(isa.CREIRR, rr.ISR)
		case isa.TrapITLBMiss, isa.TrapDTLBMiss:
			if e, ok := r.pt[rr.IOR>>isa.PageShift]; ok {
				m.TLB.Insert(e)
			} else {
				m.PC += 4 // not resident: the driver steps over the access
			}
		case isa.TrapAccess, isa.TrapPriv, isa.TrapMachine:
			if rr.Inst.Rd != 0 {
				m.Regs[rr.Inst.Rd] = value
			}
			m.PC += 4
		case isa.TrapArith:
			m.PC += 4
		default:
			r.t.Fatalf("call %d, %s: unexpected trap %v at %#x", r.calls, a.name, rr.Trap, m.PC)
		}
	}
	// The epoch's bookkeeping, from the reference arm.
	used := uint32(rrs[0].Executed)
	switch rrs[0].Trap {
	case isa.TrapAccess, isa.TrapPriv, isa.TrapMachine, isa.TrapArith:
		used++ // the emulated instruction retires too
	}
	if rrs[0].Trap == isa.TrapRecovery || used >= r.remaining {
		r.remaining = pollEpoch
	} else {
		r.remaining -= used
	}

	ref := r.arms[0].m
	for i, a := range r.arms[1:] {
		m := a.m
		if rrs[i+1] != rrs[0] {
			r.t.Fatalf("call %d: %s returned %+v, step %+v", r.calls, a.name, rrs[i+1], rrs[0])
		}
		if m.Digest() != ref.Digest() || m.Cycles() != ref.Cycles() || m.CRs != ref.CRs {
			r.t.Fatalf("call %d: %s state differs from step (pc %#x vs %#x, cycles %d vs %d)",
				r.calls, a.name, m.PC, ref.PC, m.Cycles(), ref.Cycles())
		}
		if m.Stats != ref.Stats {
			r.t.Fatalf("call %d: %s stats %+v, step %+v", r.calls, a.name, m.Stats, ref.Stats)
		}
		if m.TLB.Stats != ref.TLB.Stats {
			r.t.Fatalf("call %d: %s TLB stats %+v, step %+v", r.calls, a.name, m.TLB.Stats, ref.TLB.Stats)
		}
	}
	off, on := r.arms[2].m, r.arms[3].m
	if !bytes.Equal(encodeMachine(off.CaptureState()), encodeMachine(on.CaptureState())) || !sameStamps(off, on) {
		r.t.Fatalf("call %d (%+v): state with the memo differs from without:\nTLB off %+v %v\nTLB on  %+v %v",
			r.calls, rrs[3], off.TLB.captureState(nil), off.TLB.lru, on.TLB.captureState(nil), on.TLB.lru)
	}
	r.calls++
	return rrs[0]
}

// sameStamps reports whether two machines' LRU clocks and stamps are
// equal, raw: what the capture's ranks do not show.
func sameStamps(a, b *Machine) bool {
	pa, pb := a.TLB.lru, b.TLB.lru
	return pa == nil && pb == nil || pa != nil && pb != nil && pa.stamp == pb.stamp && slices.Equal(pa.last, pb.last)
}

// spin makes n calls of the status poll; bit 1 comes up on every
// every-th call (0: never).
func (r *pollRig) spin(n, every int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		v := uint32(0)
		if every != 0 && i%every == every-1 {
			v = 2
		}
		r.call(256, v)
	}
}

func (r *pollRig) wantHits(min uint64) {
	r.t.Helper()
	if ms := r.memo(); ms.Hits < min {
		r.t.Fatalf("memo: %+v, want at least %d hits", ms, min)
	}
	for _, a := range r.arms[:3] {
		if ms := a.m.MemoStats(); ms.Hits != 0 || ms.Records != 0 {
			r.t.Fatalf("%s used the memo: %+v", a.name, ms)
		}
	}
	ref := r.arms[0].m
	for _, a := range r.arms[1:] {
		if a.m.DigestMemory() != ref.DigestMemory() {
			r.t.Fatalf("%s: memory differs from step", a.name)
		}
	}
}

var pollTLBs = []Config{
	{TLBSize: 4},
	{TLBSize: 4, TLBPolicy: "roundrobin"},
	{TLBSize: 4, TLBPolicy: "random", TLBSeed: 7},
}

// TestRunMemoStatusSpin: the plain poll, the status changing every so
// often (so the loop leaves through its guest store and comes back), in
// virtual mode under each replacement policy and in real mode.
func TestRunMemoStatusSpin(t *testing.T) {
	for _, cfg := range pollTLBs {
		for _, virt := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/virt=%v", cfg.withDefaults().TLBPolicy, virt), func(t *testing.T) {
				r := newPollRig(t, cfg, pollSpin, virt)
				r.spin(600, 37)
				r.spin(200, 0)
				r.wantHits(400)
			})
		}
	}
}

// TestRunMemoBudgets: the recovery counter, the caller's limit and the
// interval timer at every budget up to 80 — past n + 1, below which the
// call ends differently, and past n + the longest trace, below which Run
// once dispatched it differently and an LRU TLB's clock would show it.
func TestRunMemoBudgets(t *testing.T) {
	for _, cfg := range pollTLBs[:2] {
		t.Run(cfg.withDefaults().TLBPolicy, func(t *testing.T) {
			r := newPollRig(t, cfg, pollSpin, true)
			r.spin(20, 0)
			if longestTrace(r.arms[3].m) == 0 {
				t.Fatal("no trace built: the sweep would not cut one")
			}
			for k := uint32(1); k <= 80; k++ {
				r.spin(3, 0)
				r.callRCTR(k, 256, 0)
				r.spin(3, 0)
				r.call(uint64(k), 0)
			}
			for _, psw := range []uint32{0, isa.PSWI} {
				r.each(func(m *Machine) { m.PSW |= psw; m.CRs[isa.CREIEM] = 1 })
				for k := uint32(1); k <= 80; k++ {
					r.spin(3, 0)
					r.each(func(m *Machine) { m.CRs[isa.CRITMR] = k })
					r.spin(3, 0)
					// With interrupts off the line stays up; lower it.
					r.each(func(m *Machine) { m.WriteCR(isa.CREIRR, 1) })
				}
			}
			r.wantHits(500)
		})
	}
}

// TestRunMemoEpochEnd: the poll at an epoch's end. A recorded poll of n
// instructions is recalled with exactly n + 1 of budget — from the
// recovery counter, the caller's limit or the interval timer — and
// executed with n, which ends the call before its trap.
func TestRunMemoEpochEnd(t *testing.T) {
	for _, cfg := range pollTLBs[:2] {
		t.Run(cfg.withDefaults().TLBPolicy, func(t *testing.T) {
			r := newPollRig(t, cfg, pollSpin, true)
			r.spin(20, 0)
			m := r.arms[3].m
			n, ok := m.Poll(256)
			if !ok {
				t.Fatal("Poll refused mid-spin")
			}
			for _, src := range []string{"rctr", "limit", "itmr"} {
				for _, k := range []uint64{n + 1, n} {
					r.spin(3, 0)
					var rr RunResult
					switch src {
					case "rctr":
						rr = r.callRCTR(uint32(k), 256, 0)
					case "limit":
						rr = r.callRCTR(1000, k, 0)
					case "itmr":
						r.each(func(m *Machine) { m.CRs[isa.CRITMR] = uint32(k) })
						rr = r.callRCTR(1000, 256, 0)
						r.each(func(m *Machine) { m.CRs[isa.CRITMR] = 0; m.WriteCR(isa.CREIRR, 1) })
					}
					if recalled := m.Recalled(); recalled != (k > n) || rr.Executed != n {
						t.Fatalf("%s = %d: recalled %v, %+v (n = %d)", src, k, recalled, rr, n)
					}
				}
			}
			r.wantHits(30)
		})
	}
}

// TestRunMemoInvalidation: everything a caller may do between two polls
// that the remembered one could have read.
func TestRunMemoInvalidation(t *testing.T) {
	andi := uint32(pollCode + 4)
	other, err := asm.Assemble("andi.s", "\tandi r3, r3, 4\n")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		do   func(r *pollRig)
	}{
		{"irq-masked", func(r *pollRig) {
			r.each(func(m *Machine) { m.RaiseIRQ(3) })
			r.spin(10, 0)
			r.each(func(m *Machine) { m.WriteCR(isa.CREIRR, 1<<3) })
		}},
		{"irq-enabled", func(r *pollRig) {
			r.each(func(m *Machine) { m.PSW |= isa.PSWI; m.CRs[isa.CREIEM] = 1 << 3 })
			r.spin(10, 0)
			r.each(func(m *Machine) { m.RaiseIRQ(3) })
			if rr := r.call(256, 0); rr.Trap != isa.TrapExtIntr || rr.Executed != 0 {
				t.Fatalf("raised line: %+v", rr)
			}
		}},
		{"storephys-code", func(r *pollRig) {
			r.each(func(m *Machine) { m.StorePhys32(andi, other.Words[0]) })
			r.spin(10, 3) // bit 1 no longer leaves the loop
			if got := r.arms[0].m.Regs[5]; got != 0 {
				t.Fatalf("rewritten andi still tests bit 1: r5 = %d", got)
			}
		}},
		{"writebytes-code", func(r *pollRig) {
			w := other.Words[0]
			r.each(func(m *Machine) { m.WriteBytes(andi, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}) })
			r.spin(10, 3)
			w = r.prog.Words[1]
			r.each(func(m *Machine) { m.WriteBytes(andi, []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}) })
		}},
		{"guest-store", func(r *pollRig) { r.spin(12, 2) }},
		{"tlb-insert", func(r *pollRig) {
			r.each(func(m *Machine) { m.TLB.Insert(TLBEntry{VPN: 9, PPN: 9, Flags: isa.TLBRead}) })
		}},
		{"tlb-purge", func(r *pollRig) { r.each(func(m *Machine) { m.TLB.Purge() }) }},
		{"guest-store-code", func(r *pollRig) {
			// The loop's own store lands on its andi: r14 is the driver's.
			w := other.Words[0] ^ r.prog.Words[1] ^ r.arms[0].m.LoadPhys32(andi)
			r.each(func(m *Machine) { m.Regs[14], m.Regs[5] = andi, w-1 })
			for i := 0; i < 8; i++ {
				r.call(256, uint32(i%4/3*6)) // bits 1 and 2, every fourth call
			}
			if got := r.arms[0].m.LoadPhys32(andi); got != w {
				t.Fatalf("the guest did not rewrite its andi: %#x, want %#x", got, w)
			}
			r.each(func(m *Machine) { m.Regs[14] = pollData })
		}},
		{"deferred-touch", func(r *pollRig) {
			// Whatever ran before left a fetch touch deferred on another
			// slot (a capture carries it as TLBState.Pending).
			r.each(func(m *Machine) { m.TLB.pending = (m.TLB.pending + 2) % m.TLB.Size() })
		}},
		{"privilege", func(r *pollRig) {
			// At PL 0 the status load reaches the bus and retires.
			var buses [4]countBus
			for i, a := range r.arms {
				a.m.SetPL(0)
				a.m.Bus = &buses[i]
			}
			r.spin(6, 0)
			r.each(func(m *Machine) { m.SetPL(1) })
			if buses[3] != buses[0] || buses[0].loads == 0 {
				t.Fatalf("bus traffic at PL 0: %+v with the memo, %+v stepping", buses[3], buses[0])
			}
		}},
		{"scribble", func(r *pollRig) {
			r.each(func(m *Machine) { m.Regs[7] ^= 0x55; m.Regs[0] = 7 })
			r.spin(10, 0)
			r.each(func(m *Machine) { m.Regs[0] = 0 })
		}},
		{"restore", func(r *pollRig) {
			r.each(func(m *Machine) {
				if err := m.RestoreState(m.CaptureState()); err != nil {
					t.Fatal(err)
				}
			})
			before := r.memo()
			r.call(256, 0)
			r.call(256, 0)
			if after := r.memo(); after.Hits != before.Hits {
				t.Fatalf("the memo survived RestoreState: %+v -> %+v", before, after)
			}
		}},
	}
	for _, cfg := range pollTLBs {
		for _, c := range cases {
			if c.name == "restore" && cfg.TLBPolicy == "random" {
				continue // chip-private: not restorable
			}
			t.Run(cfg.withDefaults().TLBPolicy+"/"+c.name, func(t *testing.T) {
				r := newPollRig(t, cfg, pollSpin, true)
				for round := 0; round < 3; round++ {
					r.spin(40, 0)
					c.do(r)
				}
				r.spin(40, 0)
				r.wantHits(60)
			})
		}
	}
}

// TestRunMemoPageCrossing: a poll whose three instructions straddle a
// page, so every call flushes one fetch touch and defers another.
func TestRunMemoPageCrossing(t *testing.T) {
	const src = `
	.org 0x3000
	b    spin
	.org 0x3FF8
spin:
	ldw  r3, 8(r13)
	andi r3, r3, 2
	beq  r3, r0, spin
	b    spin
`
	r := newPollRig(t, Config{TLBSize: 4}, src, true)
	r.spin(300, 41)
	r.wantHits(200)
}

// TestRunMemoPrivilegedSpin: a clock-read spin at PL 1, where MFTOD
// traps and the driver emulates it — the memo's case beside MMIO.
func TestRunMemoPrivilegedSpin(t *testing.T) {
	r := newPollRig(t, Config{TLBSize: 4}, pollClock, true)
	for i := 0; i < 300; i++ {
		r.call(256, uint32(i/50)) // a clock that ticks every 50 reads
	}
	r.wantHits(200)
}

const pollClock = `
	.org 0x3000
spin:
	mftod r3
	andi r4, r3, 1
	b    spin
`

// countBus is a device that answers every load with how many it has
// seen, so a load that was replayed instead of performed shows.
type countBus struct{ loads, stores uint32 }

func (b *countBus) MMIOLoad(uint32, int) (uint32, error) { b.loads++; return b.loads, nil }
func (b *countBus) MMIOStore(uint32, int, uint32) error  { b.stores++; return nil }
func (b *countBus) MMIOPure(uint32) bool                 { return false }

// TestRunMemoNeverRecords: short trap-ended calls from a recurring state
// that are none the less not functions of that state — each retires an
// instruction of one of the four classes the memo refuses, or runs
// where Run falls back to Step, or is one instruction too long.
func TestRunMemoNeverRecords(t *testing.T) {
	long := "\t.org 0x3000\nspin:\n\tldw r3, 8(r13)\n"
	for i := 0; i < memoMaxInstrs; i++ {
		long += "\tandi r4, r4, 1\n"
	}
	long += "\tb spin\n"
	// The trap the driver steps over is a division by zero, so that at
	// PL 0 the call still ends the way a trap storm's does.
	trapAfter := func(body string) string {
		return "\t.org 0x3000\nspin:\n" + body + "\tandi r4, r4, 0\n\tdiv r5, r5, r0\n\tb spin\n"
	}
	cases := []struct {
		name string
		src  string
		pl   uint32
		ram  uint32 // 0: pollRAM
	}{
		{"load", trapAfter("\tldw r4, 0(r13)\n"), 0, 0},
		{"store", trapAfter("\tstw r5, 0(r13)\n"), 0, 0},
		{"privileged", trapAfter("\tmfctl r4, cr20\n"), 0, 0},
		{"environment", trapAfter("\tmftod r4\n"), 0, 0},
		// Page 0 is not resident: a miss the driver steps over.
		{"tlb-miss", "\t.org 0x3000\nspin:\n\tandi r4, r4, 0\n\tldw r4, 0(r0)\n\tb spin\n", 1, 0},
		{"too-long", long, 1, 0},
		// RAM ends inside the loop's page: Run takes it an instruction at
		// a time through Step.
		{"step-fallback", pollSpin, 1, pollCode + 0x100},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newPollRig(t, Config{TLBSize: 4, MemBytes: c.ram}, c.src, true)
			var buses [4]countBus
			for i, a := range r.arms {
				a.m.SetPL(c.pl)
				a.m.Bus = &buses[i]
			}
			for i := 0; i < 100; i++ {
				r.each(func(m *Machine) { m.CRs[isa.CRISR] = uint32(i) })
				r.call(64, 0)
			}
			if ms := r.memo(); ms.Hits != 0 || ms.Records != 0 {
				t.Fatalf("reached the memo: %+v", ms)
			}
			for i, b := range buses {
				if b != buses[0] {
					t.Fatalf("%s drove the bus %+v, step %+v", r.arms[i].name, b, buses[0])
				}
			}
		})
	}
}

// TestRunMemoMachineCheck: with no bus wired an MMIO load at PL 0
// machine-checks, and the next caller may have wired one — the one
// synchronous trap that is not a function of the machine's own state.
func TestRunMemoMachineCheck(t *testing.T) {
	r := newPollRig(t, Config{TLBSize: 4}, pollSpin, true)
	r.each(func(m *Machine) { m.SetPL(0) })
	for i := 0; i < 40; i++ {
		if rr := r.call(256, 0); i > 2 && rr.Trap != isa.TrapMachine {
			t.Fatalf("call %d: %+v", i, rr)
		}
	}
	var buses [4]countBus
	for i, a := range r.arms {
		a.m.Bus = &buses[i]
	}
	for i := 0; i < 40; i++ {
		r.call(64, 0)
	}
	if ms := r.memo(); ms.Hits != 0 || ms.Records != 0 {
		t.Fatalf("a machine check reached the memo: %+v", ms)
	}
}

// countPolicy is a replacement policy from outside this package: its
// Touch has an effect the memo knows nothing about.
type countPolicy struct {
	RoundRobinPolicy
	touches int
}

func (p *countPolicy) Touch(int)    { p.touches++ }
func (p *countPolicy) Name() string { return "count" }

// TestRunMemoForeignPolicy: the memo replays recency as LRU stamps or as
// nothing; under a policy whose Touch it cannot replay it must stay out.
func TestRunMemoForeignPolicy(t *testing.T) {
	r := newPollRig(t, Config{TLBSize: 4}, pollSpin, true)
	var pols [4]countPolicy
	for i, a := range r.arms {
		a.m.TLB = NewTLB(4, &pols[i])
	}
	r.spin(100, 17)
	if ms := r.memo(); ms.Hits != 0 || ms.Records != 0 {
		t.Fatalf("reached the memo: %+v", ms)
	}
	if pols[2].touches != pols[3].touches || pols[3].touches == 0 {
		t.Fatalf("the policy was touched %d times with the memo, %d without", pols[3].touches, pols[2].touches)
	}
}

// TestRunMemoHalted: Step and Run may be mixed. A HALT retired through
// Step leaves the machine, registers untouched, at an address Run has a
// remembered call for — and a halted machine runs nothing.
func TestRunMemoHalted(t *testing.T) {
	p, err := asm.Assemble("halt.s", `
	spin:
		div  r5, r5, r0      ; traps; the driver steps over it, and the next word
		halt
		b    spin
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{MemBytes: pollRAM})
	m.LoadProgram(p.Origin, p.Words, p.Origin)
	for i := 0; i < 10; i++ {
		if rr := m.Run(64); rr.Trap != isa.TrapArith {
			t.Fatalf("call %d: %+v", i, rr)
		}
		m.PC += 8
	}
	if ms := m.MemoStats(); ms.Hits == 0 {
		t.Fatalf("the spin never hit: %+v", ms)
	}
	m.PC -= 4
	if res := m.Step(); !res.Halted {
		t.Fatalf("Step at the halt: %+v", res)
	}
	if rr := m.Run(64); !rr.Halted || rr.Executed != 0 || rr.Trap != isa.TrapNone {
		t.Fatalf("Run on a halted machine: %+v", rr)
	}
}

// TestRunMemoHitAllocs: a hit allocates nothing.
func TestRunMemoHitAllocs(t *testing.T) {
	r := newPollRig(t, Config{}, pollSpin, true)
	r.spin(10, 0)
	m := r.arms[3].m
	before := m.MemoStats()
	allocs := testing.AllocsPerRun(200, func() {
		m.CRs[isa.CRRCTR] = 1000
		rr := m.Run(256)
		m.Regs[rr.Inst.Rd] = 0
		m.PC += 4
	})
	if after := m.MemoStats(); after.Hits-before.Hits < 200 {
		t.Fatalf("not hitting: %+v -> %+v", before, after)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per memo hit", allocs)
	}
}

// TestReplayHits: ReplayHits(j) against j Run calls that each hit, the
// driver re-emulating the trapped load between them, for every j up to
// 100 under each replacement policy, in virtual and in real mode — every
// byte of the encoded state and the raw LRU stamps (the j-th call stamps
// its slots off a clock j-1 advances on), the countdown in RCTR and ITMR, the
// counters. Two rigs are warmed alike; one memo arm takes the calls one
// by one, the other all at once.
func TestReplayHits(t *testing.T) {
	for _, cfg := range pollTLBs {
		for _, virt := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/virt=%v", cfg.withDefaults().TLBPolicy, virt), func(t *testing.T) {
				ra, rb := newPollRig(t, cfg, pollSpin, virt), newPollRig(t, cfg, pollSpin, virt)
				ra.spin(40, 0)
				rb.spin(40, 0)
				one, all := ra.arms[3].m, rb.arms[3].m
				emulate := func(m *Machine, rd isa.Reg) {
					m.Regs[rd] = 0
					m.PC += 4
				}
				const budget = 1 << 24
				for _, m := range []*Machine{one, all} {
					m.CRs[isa.CRRCTR] = budget
					m.CRs[isa.CRITMR] = budget / 2 // armed, and far off: it counts down too
				}
				for j := uint64(1); j <= 100; j++ {
					n, ok := all.Poll(256)
					if !ok || n != 2 {
						t.Fatalf("j=%d: Poll = (%d, %v) in the middle of a spin", j, n, ok)
					}
					var last RunResult
					for i := uint64(0); i < j; i++ {
						last = one.Run(256)
						if !one.Recalled() || last.Trap != isa.TrapAccess || last.Executed != n {
							t.Fatalf("j=%d call %d: %+v, recalled %v", j, i, last, one.Recalled())
						}
						emulate(one, last.Inst.Rd)
					}
					all.ReplayHits(j)
					if !all.Recalled() {
						t.Fatalf("j=%d: not Recalled after ReplayHits", j)
					}
					emulate(all, last.Inst.Rd)
					if a, b := encodeMachine(one.CaptureState()), encodeMachine(all.CaptureState()); !bytes.Equal(a, b) || !sameStamps(one, all) {
						t.Fatalf("j=%d: ReplayHits left other bytes than %d hits:\nTLB one %+v\nTLB all %+v\nCRs one %v\nCRs all %v",
							j, j, one.TLB.captureState(nil), all.TLB.captureState(nil), one.CRs, all.CRs)
					}
					if one.MemoStats() != all.MemoStats() || one.Stats != all.Stats || one.TLB.Stats != all.TLB.Stats || one.Cycles() != all.Cycles() {
						t.Fatalf("j=%d: counters differ:\n one %+v %+v %+v\n all %+v %+v %+v", j,
							one.MemoStats(), one.Stats, one.TLB.Stats, all.MemoStats(), all.Stats, all.TLB.Stats)
					}
				}
				if hits := one.MemoStats().Hits; hits < 5050 {
					t.Fatalf("%d hits over the sweep, want 5050 and the warm-up's", hits)
				}

				// What Poll refuses: a budget of n by either counter or the
				// limit, a state off the key, a call that executed.
				n, _ := all.Poll(256)
				if _, ok := all.Poll(n); ok {
					t.Error("Poll accepted a limit of n")
				}
				if _, ok := all.Poll(n + 1); !ok {
					t.Error("Poll refused a limit of n + 1")
				}
				all.CRs[isa.CRRCTR] = uint32(n)
				if _, ok := all.Poll(256); ok {
					t.Error("Poll accepted a recovery counter of n")
				}
				all.CRs[isa.CRRCTR] = budget
				all.Regs[9]++
				if _, ok := all.Poll(256); ok {
					t.Error("Poll accepted a scribbled register")
				}
				all.Regs[9]--
				if _, ok := all.Poll(256); !ok {
					t.Error("Poll refused the key state")
				}
				all.Regs[9]++
				if rr := all.Run(256); all.Recalled() || rr.Trap != isa.TrapAccess {
					t.Errorf("a call off the key: %+v, recalled %v", rr, all.Recalled())
				}
			})
		}
	}
}

// TestReplayHitsAllocs: a batch allocates nothing.
func TestReplayHitsAllocs(t *testing.T) {
	r := newPollRig(t, pollTLBs[0], pollSpin, true)
	r.spin(40, 0)
	m := r.arms[3].m
	m.CRs[isa.CRRCTR] = 1 << 24
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := m.Poll(256); !ok {
			t.Fatal("Poll refused mid-spin")
		}
		m.ReplayHits(12)
		m.Regs[3] = 0
		m.PC += 4
	}); n != 0 {
		t.Errorf("%v allocations per Poll + ReplayHits", n)
	}
}
