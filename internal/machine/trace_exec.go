package machine

import (
	"repro/internal/isa"
)

// The trace executor. runTraces is the hot loop — entry, dispatch,
// linking, the flush at exit — and nothing else; every path an ordinary
// instruction does not take on every execution is a non-inlined method
// on texState, the one stack-resident record of the call. The contract
// between the two, which the disassembly and tools/bcecheck hold the
// file to:
//
// What may be live in the loop: the current trace's packed words (code,
// one uint64 per op, see traceOp.word), the index into them, and the
// data window — rdTag, wrTag, frame, dec. That is what the register
// allocator holds, and nothing of it is live across an out-of-line call:
// the callee returns the index to go on at and the window is re-read
// from s, so the compiler has nothing to spill at the loop head (a
// variable that is live across a call is stored there on EVERY
// iteration). The guest register file is s.regs, an array in this frame
// indexed with &31: no bounds check, no pointer to chase. Everything
// else — the machine, the TLB, the execution page, the trace record, its
// entry address, the budget, the retired-work totals — is read from s
// where a trace is left, never carried through the loop.
//
// What must go through the state struct: anything but ALU work, untaken
// branches and window hits. TLB probe, miss and permission, MMIO and
// end-of-RAM through loadPhys/storePhys, COW faults, decoded-slot
// invalidation and dropTraces, alignment, the resync behind a load or
// store with side effects, and the window's own upkeep are s.access —
// one body, so one translation path, for loads and stores of every
// width in both addressing modes; DIV and REM are s.div; both stage
// their traps through s.trap. The third out-of-line op is s.spin, on a
// self-loop's back-edge only (below).
//
// Spins. A guest that waits — io_spin on a flag the completion handler
// sets, a bare guest on a device status register — runs a self-loop
// whose iterations are all the same iteration. When one iteration can
// have changed nothing, the executor retires the rest of the budget in
// one step (s.spin): k = allowed/L more iterations of L instructions,
// each with its loads and branches — every iteration the budget holds
// whole — and the one cut short runs as the prefix that fits, as it
// would have without the fast-forward. The argument: the
// iteration lies inside the trace's spin prefix (spinPrefix: no store,
// no register written that was read before it was written), so every
// register it reads first is one it does not write; it stores nothing;
// and if no out-of-line access ran in it that could change what the next
// one sees, memory, devices, the window and TLB recency are as it found
// them — so the next iteration reads the same inputs and does the same
// thing, and so does every one after it. What counts as such an access
// is s.access's to say, and it says it in one flag, s.changed: a TLB
// refill or touch, any store, a device load that is not pure
// (MMIOHandler.MMIOPure). The flag lives in s and is written only out of
// line, so it costs the loop no register; s.spin clears it and declines
// when it is set, so a spin fast-forwards at its second back-edge at the
// latest, and a declined check goes on through rewindow like any other
// out-of-line op. Registers, memory, recency and device state are left
// exactly as the loop would leave them: window hits and pure loads touch
// nothing, and the retired counts land with the totals at exit.
//
// The data window. The executor caches one data translation per call
// (dVPN: the TLB cannot change inside a trace — ITLBI and PTLB end
// traces — so only recency and statistics must replay). The window is
// that page's host frame, its decoded image (nil if it was never
// executed), and two address tags: rdTag matches an access the page
// serves as plain readable RAM, wrTag one it serves as plain RAM that is
// writable and owned (not COW-shared). A tag is the page's virtual base;
// an access compares its address with the in-page offset bits masked
// out, so one compare checks page and alignment together, and noWindow
// matches nothing. A hit is one frame read or write. A store hits only
// if the word it lands in has no decoded slot, no trace cover and no
// entry mark, so a hit never invalidates anything. In real mode the
// translation is the identity and the window works the same.
//
// Why the window cannot change recency: a hit is exactly the access on
// which the executor, since it first cached a translation, touched
// nothing but Stats.Hits — same page as the last data access (whose
// flush/touch pair already stands and whose re-armed fetch touch is
// still pending), permitted, plain RAM, nothing to invalidate. And the
// count needs no counter: every retired load or store is one data hit
// whichever way it went, so the hits land with the class totals at exit
// (in real mode they are dropped). Every other access takes s.access,
// which replays Step's flushPending/touch order stamp for stamp, as the
// run memo requires.
//
// The window is derived state, re-derived at the only points its inputs
// can move: at entry (empty), and in s.access behind every load (a new
// page; an MMIO load can run device DMA) and every store (a COW fault
// swaps the frame and sets owned) that retires through it.

// noWindow is the tag no access matches: masking an address leaves at
// most its low two bits, so none comes out with bit 2 alone.
const noWindow = 4

// texState is one runTraces call: what its out-of-line paths share with
// the loop. It never escapes (go build -gcflags=-m).
type texState struct {
	m   *Machine
	tlb *TLB
	// The execution page and what Run established about it.
	pg        *decodedPage
	gen0      uint32 // pg.gen at entry: traces dropped since if it moved
	base      uint32
	pageVA    uint32
	fetchSlot int
	pl        uint32
	virt      bool
	checkIRQ  bool

	// regs is the register file for the call, written back at exit.
	// regs[0] is held at zero whatever the caller left in Regs[0], which
	// the exit restores (r0) so digests are unaffected.
	regs [isa.NumRegs]uint32
	r0   uint32

	// The trace being executed, the address of its first instruction, and
	// how many instructions may still retire (a trace runs the ops that
	// fit them, see trace.fit).
	tr      *trace
	entryVA uint32
	allowed uint64

	// The cached data translation (dVPN ^0: none yet) and the window
	// derived from it.
	dVPN, dPPN   uint32
	dSlot        int
	dRdOK, dWrOK bool
	rdTag, wrTag uint32
	frame        *ramPage
	dec          *decodedPage

	// changed: an out-of-line access since the last spin check may have
	// changed what a self-loop's next iteration sees (see Spins).
	changed bool

	// Retired work, flushed to m.Stats/cycles at exit.
	totR, totLd, totSt, totBr uint64
	exKind                    int
}

// runTraces executes superblock traces starting at the current PC until
// no usable trace remains, chaining across in-page transfers. It is
// called by Run with the execution page established and the deferred
// fetch touch primed. Returns the TLB hit count to add to the batch
// (zero in real mode) and an exit kind (see texStep/texResync/texTrap).
//
// Of each trace the executor runs the ops that retire whole within the
// remaining budget (recovery counter included, via budget) and the
// interval timer — the whole trace when it fits, a prefix cut before the
// first op that does not when it does not — so no async condition can
// fire mid-trace, and the traces a call runs are the ones any larger
// budget would run, up to where this one ends. Everything that could
// change the outcome of the hoisted checks — privileged and resync
// instructions, MMIO side effects, self-modifying stores — either
// terminates the trace at build time or exits it at run time.
func (m *Machine) runTraces(pg *decodedPage, base, pageVA uint32, fetchSlot int, pl uint32, budget uint64, checkIRQ bool) (uint64, int) {
	slot := (m.PC & isa.PageMask) >> 2
	tr := m.traceFor(pg, base, slot)
	if tr == nil {
		return 0, texStep
	}
	allowed := budget
	if t := uint64(m.CRs[isa.CRITMR]); t != 0 && t < allowed {
		// The timer raises its interrupt exactly when the countdown
		// hits zero; capping the batch there reproduces Step's timing.
		allowed = t
	}
	if tr.fit(allowed) == 0 {
		return 0, texStep // a fused first op, one instruction left
	}

	// Field by field: a composite literal is built aside and copied in.
	var s texState
	s.m, s.tlb = m, m.TLB
	s.pg, s.gen0, s.base, s.pageVA = pg, pg.gen, base, pageVA
	s.fetchSlot, s.pl, s.virt, s.checkIRQ = fetchSlot, pl, fetchSlot >= 0, checkIRQ
	s.regs, s.r0 = m.Regs, m.Regs[0]
	s.tr, s.entryVA, s.allowed = tr, pageVA|slot<<2, allowed
	s.dVPN, s.rdTag, s.wrTag = ^uint32(0), noWindow, noWindow
	s.exKind = texResync
	s.regs[0] = 0
	var (
		code         []uint64
		i            int
		rdTag, wrTag uint32 = noWindow, noWindow
		frame        *ramPage
		dec          *decodedPage
		nextVA       uint32
		n            uint64 // instructions the op that leaves the trace retires
	)

chain:
	code = s.tr.code
	if uint64(s.tr.ilen) > s.allowed {
		code = code[:s.tr.fit(s.allowed)] // the prefix that fits
	}
	i = 0
	// The markers are read by tools/bcecheck (CI): the loop may keep the
	// three bounds checks of its side-table reads where a trace is left
	// (BL's link offset, a fused branch's target, the exit's counts) and
	// no other — none on the register file, the frame or the code words.
	// hot-loop:begin bounds-checks=3
	for uint(i) < uint(len(code)) {
		w := code[i]
		switch uint8(w) {
		case tNOP:
		case tADD:
			s.regs[opRd(w)] = s.regs[opR1(w)] + s.regs[opR2(w)]
		case tSUB:
			s.regs[opRd(w)] = s.regs[opR1(w)] - s.regs[opR2(w)]
		case tAND:
			s.regs[opRd(w)] = s.regs[opR1(w)] & s.regs[opR2(w)]
		case tOR:
			s.regs[opRd(w)] = s.regs[opR1(w)] | s.regs[opR2(w)]
		case tXOR:
			s.regs[opRd(w)] = s.regs[opR1(w)] ^ s.regs[opR2(w)]
		case tSLL:
			s.regs[opRd(w)] = s.regs[opR1(w)] << (s.regs[opR2(w)] & 31)
		case tSRL:
			s.regs[opRd(w)] = s.regs[opR1(w)] >> (s.regs[opR2(w)] & 31)
		case tSRA:
			s.regs[opRd(w)] = uint32(int32(s.regs[opR1(w)]) >> (s.regs[opR2(w)] & 31))
		case tSLT:
			s.regs[opRd(w)] = b2u(int32(s.regs[opR1(w)]) < int32(s.regs[opR2(w)]))
		case tSLTU:
			s.regs[opRd(w)] = b2u(s.regs[opR1(w)] < s.regs[opR2(w)])
		case tMUL:
			s.regs[opRd(w)] = s.regs[opR1(w)] * s.regs[opR2(w)]
		case tDIV, tREM:
			i = s.div(i, w)
			goto rewindow
		case tADDI:
			s.regs[opRd(w)] = s.regs[opR1(w)] + opImm(w)
		case tANDI:
			s.regs[opRd(w)] = s.regs[opR1(w)] & opImm(w)
		case tORI:
			s.regs[opRd(w)] = s.regs[opR1(w)] | opImm(w)
		case tXORI:
			s.regs[opRd(w)] = s.regs[opR1(w)] ^ opImm(w)
		case tSLTI:
			s.regs[opRd(w)] = b2u(int32(s.regs[opR1(w)]) < int32(opImm(w)))
		case tSLTIU:
			s.regs[opRd(w)] = b2u(s.regs[opR1(w)] < opImm(w))
		case tSLLI: // decode keeps shift immediates to five bits
			s.regs[opRd(w)] = s.regs[opR1(w)] << (opImm(w) & 31)
		case tSRLI:
			s.regs[opRd(w)] = s.regs[opR1(w)] >> (opImm(w) & 31)
		case tSRAI:
			s.regs[opRd(w)] = uint32(int32(s.regs[opR1(w)]) >> (opImm(w) & 31))
		case tLI:
			s.regs[opRd(w)] = opImm(w)

		case tLDW:
			va := s.regs[opR1(w)] + opImm(w)
			if va&^(isa.PageMask&^3) != rdTag {
				i = s.access(i, w, va, 4, false)
				goto rewindow
			}
			if rd := opRd(w); rd != 0 {
				s.regs[rd] = ld32(frame, va)
			}
		case tLDH:
			va := s.regs[opR1(w)] + opImm(w)
			if va&^(isa.PageMask&^1) != rdTag {
				i = s.access(i, w, va, 2, false)
				goto rewindow
			}
			if rd := opRd(w); rd != 0 {
				s.regs[rd] = ld16(frame, va)
			}
		case tLDB:
			va := s.regs[opR1(w)] + opImm(w)
			if va&^isa.PageMask != rdTag {
				i = s.access(i, w, va, 1, false)
				goto rewindow
			}
			if rd := opRd(w); rd != 0 {
				s.regs[rd] = uint32(frame[va&isa.PageMask])
			}

		case tSTW:
			va := s.regs[opR1(w)] + opImm(w)
			if va&^(isa.PageMask&^3) != wrTag || dec != nil && dec.decodedAt(va) {
				i = s.access(i, w, va, 4, true)
				goto rewindow
			}
			st32(frame, va, s.regs[opRd(w)])
		case tSTH:
			va := s.regs[opR1(w)] + opImm(w)
			if va&^(isa.PageMask&^1) != wrTag || dec != nil && dec.decodedAt(va) {
				i = s.access(i, w, va, 2, true)
				goto rewindow
			}
			st16(frame, va, s.regs[opRd(w)])
		case tSTB:
			va := s.regs[opR1(w)] + opImm(w)
			if va&^isa.PageMask != wrTag || dec != nil && dec.decodedAt(va) {
				i = s.access(i, w, va, 1, true)
				goto rewindow
			}
			frame[va&isa.PageMask] = byte(s.regs[opRd(w)])

		case tBEQ:
			if s.regs[opR1(w)] == s.regs[opR2(w)] {
				goto taken
			}
		case tBNE:
			if s.regs[opR1(w)] != s.regs[opR2(w)] {
				goto taken
			}
		case tBLT:
			if int32(s.regs[opR1(w)]) < int32(s.regs[opR2(w)]) {
				goto taken
			}
		case tBGE:
			if int32(s.regs[opR1(w)]) >= int32(s.regs[opR2(w)]) {
				goto taken
			}
		case tBLTU:
			if s.regs[opR1(w)] < s.regs[opR2(w)] {
				goto taken
			}
		case tBGEU:
			if s.regs[opR1(w)] >= s.regs[opR2(w)] {
				goto taken
			}
		case tBL:
			if rd := opRd(w); rd != 0 {
				s.regs[rd] = (s.entryVA + s.tr.ops[i].aux) | s.pl
			}
			goto taken
		case tBV:
			nextVA, n = s.regs[opR1(w)]&^3, 1
			goto leave

		case tFADDIBEQ:
			v := s.regs[opR1(w)] + opImm(w)
			s.regs[opRd(w)] = v
			if v == 0 {
				goto takenF
			}
		case tFADDIBNE:
			v := s.regs[opR1(w)] + opImm(w)
			s.regs[opRd(w)] = v
			if v != 0 {
				goto takenF
			}
		case tFANDIBEQ:
			v := s.regs[opR1(w)] & opImm(w)
			s.regs[opRd(w)] = v
			if v == 0 {
				goto takenF
			}
		case tFANDIBNE:
			v := s.regs[opR1(w)] & opImm(w)
			s.regs[opRd(w)] = v
			if v != 0 {
				goto takenF
			}
		case tFSLTIBEQ:
			v := b2u(int32(s.regs[opR1(w)]) < int32(opImm(w)))
			s.regs[opRd(w)] = v
			if v == 0 {
				goto takenF
			}
		case tFSLTIBNE:
			v := b2u(int32(s.regs[opR1(w)]) < int32(opImm(w)))
			s.regs[opRd(w)] = v
			if v != 0 {
				goto takenF
			}
		}
		i++
		continue

	rewindow:
		// An out-of-line op came back with the index to go on at, or -1
		// with the exit staged. Nothing the loop holds was live across
		// the call: pick up the window it left.
		if i < 0 {
			goto done
		}
		rdTag, wrTag, frame, dec = s.rdTag, s.wrTag, s.frame, s.dec
		continue

	takenF:
		// Fused compare+branch taken: the pair retires as two
		// instructions, and the target is in the side table.
		nextVA, n = s.entryVA+s.tr.ops[i].aux, 2
		goto leave
	taken:
		// A conditional branch (or BL) took its precomputed target.
		nextVA, n = s.entryVA+opImm(w), 1
	leave:
		s.count(s.tr.ops[i], n, 0, 0)
		s.totBr++
		if nextVA == s.entryVA && uint64(s.tr.ilen) <= s.allowed {
			if i < s.tr.spin {
				if s.spin(i, n) {
					goto cut // every whole iteration is retired
				}
				i = 0
				goto rewindow // the window was not live across the call
			}
			i = 0
			continue // self-loop: restart without re-linking
		}
		goto link
	}
	// hot-loop:end
	tr = s.tr
	if len(code) < len(tr.code) {
		// Ran off a prefix: the op at the cut did not run, and its side
		// table holds what retired before it.
		c := tr.ops[len(code)]
		s.count(c, 0, 0, 0)
		s.m.PC = s.entryVA + uint32(c.pos)*4
		goto done
	}
	// Ran off the end of the trace: the next instruction follows it.
	s.totR += uint64(tr.ilen)
	s.totLd += uint64(tr.loads)
	s.totSt += uint64(tr.stores)
	s.totBr += uint64(tr.branches)
	s.allowed -= uint64(tr.ilen)
	nextVA = s.entryVA + tr.ilen*4

link:
	// Chain to the trace at nextVA if it is on this page and built; chain
	// cuts it to what the budget holds (nothing, once it is spent).
	if nextVA&^uint32(isa.PageMask) != s.pageVA {
		s.m.PC = nextVA
		goto done
	}
	slot = nextVA >> 2 & (instsPerPage - 1)
	if ti := s.pg.traceAt[slot]; ti-1 < traceVisited-1 {
		tr = s.pg.traces[ti-1] // hot case: already built
	} else {
		tr = s.m.traceFor(s.pg, s.base, slot)
	}
	if tr == nil {
		s.m.PC = nextVA
		goto done
	}
	s.tr, s.entryVA = tr, nextVA
	goto chain

cut:
	// A spin left less than one iteration: run the prefix of it that fits,
	// on a window re-read, so none was live across the call.
	rdTag, wrTag, frame, dec = s.rdTag, s.wrTag, s.frame, s.dec
	goto chain

done:
	// Write the call's registers and retired work back to the machine.
	s.regs[0] = s.r0
	m.Regs = s.regs
	m.cycles += s.totR
	m.Stats.Instructions += s.totR
	m.Stats.Loads += s.totLd
	m.Stats.Stores += s.totSt
	m.Stats.Branches += s.totBr
	if t := m.CRs[isa.CRITMR]; t != 0 {
		t -= uint32(s.totR)
		m.CRs[isa.CRITMR] = t
		if t == 0 {
			m.RaiseIRQ(0)
		}
	}
	if m.PSW&isa.PSWR != 0 {
		m.CRs[isa.CRRCTR] -= uint32(s.totR)
	}
	if !s.virt {
		return 0, s.exKind
	}
	// In virtual mode every retired instruction is one fetch hit and every
	// retired load or store one data hit — through the window or through
	// access, the TLB cannot tell — so the hits are the class totals and
	// the loop counts nothing.
	hits := s.totR + s.totLd + s.totSt
	if s.exKind == texTrap {
		hits++ // the faulting instruction's fetch still hit
	}
	return hits, s.exKind
}

// ld32, ld16, st32 and st16 are the window's aligned little-endian
// accesses at va's offset in the frame. Written byte by byte on an index
// the mask bounds, they compile to one move each with no bounds check
// (a slice of the frame would keep its check and a clamp).
func ld32(f *ramPage, va uint32) uint32 {
	o := int(va & (isa.PageMask &^ 3))
	return uint32(f[o]) | uint32(f[o+1])<<8 | uint32(f[o+2])<<16 | uint32(f[o+3])<<24
}

func ld16(f *ramPage, va uint32) uint32 {
	o := int(va & (isa.PageMask &^ 1))
	return uint32(f[o]) | uint32(f[o+1])<<8
}

func st32(f *ramPage, va, v uint32) {
	o := int(va & (isa.PageMask &^ 3))
	f[o], f[o+1], f[o+2], f[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func st16(f *ramPage, va, v uint32) {
	o := int(va & (isa.PageMask &^ 1))
	f[o], f[o+1] = byte(v), byte(v>>8)
}

// The out-of-line ops — access and div — return the index the trace goes
// on at (the op retired plainly), or -1 with the exit staged: a trap, or
// a resync behind an op that retired with side effects.

// access is every load and store that missed the window: another page
// than the cached one, a device or shared or read-only page, a word with
// something decoded on it, a misaligned address. It is Step's access
// over the cached translation — one body for both directions, every
// width and both addressing modes, and one call from the loop: an idle
// bare guest's device poll comes through here on every iteration.
//
//go:noinline
func (s *texState) access(i int, w uint64, va, size uint32, write bool) int {
	if va&(size-1) != 0 {
		return s.trap(i, isa.TrapAlign, 0, va)
	}
	// Translate, refilling the cached translation from the TLB (in real
	// mode, with the identity) when the page changes. A miss is counted
	// here; the hit of a translation that succeeds is counted where its
	// access ends — the exit counts one per retired load or store, the
	// fault path below the one of an access that then faults.
	m, tlb := s.m, s.tlb
	switch vpn := va >> isa.PageShift; {
	case !s.virt:
		s.dVPN, s.dPPN, s.dRdOK, s.dWrOK = vpn, vpn, true, true
	case vpn == s.dVPN:
		// Repeat access to the cached page: the interior flush/touch
		// pairs of a same-page run collapse into the one applied at
		// first use (order-equivalent, like the deferred fetch touch).
	default:
		tlb.flushPending()
		e, idx, found := tlb.probeIndex(vpn)
		if !found {
			tlb.Stats.Misses++
			return s.trap(i, isa.TrapDTLBMiss, 0, va)
		}
		tlb.touch(idx)
		s.changed = true
		s.dVPN, s.dSlot, s.dPPN = vpn, idx, e.PPN
		s.dRdOK = permittedFlags(e.Flags, accessRead, s.pl)
		s.dWrOK = permittedFlags(e.Flags, accessWrite, s.pl)
		// Re-arm the deferred fetch touch here: it stays armed for the
		// rest of the call (nothing flushes on the success paths), which
		// is exactly the per-op re-arm the exact path performs.
		tlb.pending = s.fetchSlot
	}
	pa := s.dPPN<<isa.PageShift | va&isa.PageMask
	t := isa.TrapAccess
	switch {
	case write && s.dWrOK:
		// storePhys invalidates what the store lands on; if that dropped
		// this page's traces, the store retires and the trace ends behind
		// it (below), exactly where Step would notice.
		t = m.storePhys(pa, int(size), s.regs[opRd(w)])
		s.changed = true
	case !write && s.dRdOK:
		var v uint32
		if v, t = m.loadPhys(pa, int(size)); t == isa.TrapNone && opRd(w) != 0 {
			s.regs[opRd(w)] = v
		}
		if t == isa.TrapNone && m.InMMIO(pa) && !m.Bus.MMIOPure(pa-MMIOBase) {
			s.changed = true
		}
	}
	if t != isa.TrapNone {
		// The access faulted after its translation hit — no permission, a
		// device at PL > 0, a machine check. The hit counts, and Step's
		// trap-time recency is replayed: the deferred fetch touch applies,
		// then the data page becomes most recent (redundant when the entry
		// was just filled: re-touching the newest slot and flushing an
		// empty pending preserve order).
		if s.virt {
			tlb.Stats.Hits++
			tlb.flushPending()
			tlb.touch(s.dSlot)
		}
		return s.trap(i, t, 0, va)
	}

	// Retired. Re-derive the window: the page may be new, a COW fault
	// swaps the frame and sets owned, a device access can run DMA.
	s.rdTag, s.wrTag = noWindow, noWindow
	if m.plainRAMPage(s.dPPN << isa.PageShift) {
		tag := s.dVPN << isa.PageShift
		s.frame, s.dec = m.frames[s.dPPN], m.pages[s.dPPN]
		if s.dRdOK {
			s.rdTag = tag
		}
		if s.dWrOK && m.ownedPage(s.dPPN) {
			s.wrTag = tag
		}
	}
	// End the trace behind the op if it had side effects that must
	// resync — device work that raised an interrupt line, or anything (a
	// store, device DMA) that dropped this page's traces. Plain RAM
	// accesses can do neither.
	if s.pg.gen == s.gen0 && !(s.checkIRQ && m.IRQPending()) {
		return i + 1
	}
	c := s.tr.ops[i]
	if write {
		s.count(c, 1, 0, 1)
	} else {
		s.count(c, 1, 1, 0)
	}
	m.PC = s.entryVA + (uint32(c.pos)+1)*4
	return -1
}

// div is DIV and REM: rare, and the only ALU ops that can trap.
//
//go:noinline
func (s *texState) div(i int, w uint64) int {
	d := int32(s.regs[opR2(w)])
	if d == 0 {
		pos := uint32(s.tr.ops[i].pos)
		return s.trap(i, isa.TrapArith, s.pg.words[(s.entryVA&isa.PageMask)>>2+pos], s.entryVA+pos*4)
	}
	n := int32(s.regs[opR1(w)])
	var q uint32
	switch overflow := n == -1<<31 && d == -1; {
	case uint8(w) == tDIV && overflow:
		q = uint32(n) // defined as saturating
	case uint8(w) == tDIV:
		q = uint32(n / d)
	case !overflow:
		q = uint32(n % d)
	}
	if rd := opRd(w); rd != 0 {
		s.regs[rd] = q
	}
	return i + 1
}

// debugNoSpin, when set (tests; spec.go), keeps spin from ever fast-forwarding:
// the reference arm of the closed-form differential.
var debugNoSpin bool

// spin is a taken self-loop back-edge at op i, inside the trace's spin
// prefix, with the iteration's n own instructions already counted and a
// whole trace still in the budget. If nothing the iteration did out of
// line can have changed the next one (see Spins), it retires every whole
// iteration the budget still holds and reports true, for the caller to
// run the prefix of the next that fits; otherwise it clears the flag for
// the next iteration.
//
//go:noinline
func (s *texState) spin(i int, n uint64) bool {
	if s.changed || debugNoSpin {
		s.changed = false
		return false
	}
	c := s.tr.ops[i]
	per := uint64(c.pos) + n // instructions an iteration retires
	k := s.allowed / per
	s.totR += k * per
	s.allowed -= k * per
	s.totLd += k * uint64(c.ld)
	s.totBr += k * (uint64(c.br) + 1)
	s.m.memo.stats.Spun += k * per
	return true
}

// trap stages a synchronous trap on op i, which did not retire: the
// faulting PC and the Inst/Raw detail come from the op's position on
// the decoded page. Always -1, for the caller to return.
func (s *texState) trap(i int, t isa.Trap, isr, ior uint32) int {
	m := s.m
	c := s.tr.ops[i]
	s.count(c, 0, 0, 0)
	m.PC = s.entryVA + uint32(c.pos)*4
	m.Stats.Traps++
	fs := (s.entryVA&isa.PageMask)>>2 + uint32(c.pos)
	m.tres = StepResult{Trap: t, ISR: isr, IOR: ior, Inst: s.pg.insts[fs], Raw: s.pg.words[fs]}
	s.exKind = texTrap
	return -1
}

// count retires the part of the current trace before op c, plus n
// instructions, ld loads and st stores of c's own, and takes the
// instructions off the budget.
func (s *texState) count(c traceOp, n, ld, st uint64) {
	n += uint64(c.pos)
	s.totR += n
	s.allowed -= n
	s.totLd += uint64(c.ld) + ld
	s.totSt += uint64(c.st) + st
	s.totBr += uint64(c.br)
}
