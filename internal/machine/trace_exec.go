package machine

import (
	"encoding/binary"

	"repro/internal/isa"
)

// runTraces executes superblock traces starting at the current PC until
// no usable trace remains, chaining across in-page transfers. It is
// called by Run with the execution page established and the deferred
// fetch touch primed. Returns the fetch-hit count to add to the batch
// (zero in real mode) and an exit kind (see texStep/texResync/texTrap).
//
// The executor only enters a trace whose full instruction count fits in
// the remaining budget (recovery counter included, via budget) and the
// interval timer, so no async condition can fire mid-trace; everything
// that could change the outcome of the hoisted checks — privileged and
// resync instructions, MMIO side effects, self-modifying stores — either
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
	if uint64(tr.ilen) > allowed {
		return 0, texStep
	}

	var (
		// regs is a local copy of the register file, written back at
		// every exit. A local array cannot alias the RAM slice, so the
		// compiler keeps hot registers in machine registers across
		// stores — the dominant win of the lowered dispatch.
		regs   = m.Regs
		frames = m.frames
		owned  = m.owned
		tlb    = m.TLB
		virt   = m.PSW&isa.PSWV != 0
		gen0   = pg.gen
		memTop = m.memSize

		entryVA = pageVA | slot<<2

		// Retired-work totals, flushed to m.Stats/cycles on exit.
		totR, totLd, totSt, totBr uint64

		// One-entry data-translation cache. Valid for the whole call:
		// the TLB cannot change inside a trace (ITLBI/PTLB terminate
		// traces), only recency/statistics side effects must replay.
		dVPN  = ^uint32(0)
		dSlot int
		dPPN  uint32
		dRdOK bool
		dWrOK bool

		exKind       = texResync
		exTrap       isa.Trap
		exISR, exIOR uint32

		nextVA uint32
		ops    []traceOp
		i      int

		// r0 reads must see zero even if a caller scribbled on Regs[0];
		// restored on every exit so digests are unaffected.
		r0 = m.Regs[0]
	)
	regs[0] = 0

chain:
	ops = tr.ops
	i = 0
body:
	for i < len(ops) {
		op := ops[i]
		switch op.kind {
		case tNOP:
		case tADD:
			regs[op.rd] = regs[op.r1] + regs[op.r2]
		case tSUB:
			regs[op.rd] = regs[op.r1] - regs[op.r2]
		case tAND:
			regs[op.rd] = regs[op.r1] & regs[op.r2]
		case tOR:
			regs[op.rd] = regs[op.r1] | regs[op.r2]
		case tXOR:
			regs[op.rd] = regs[op.r1] ^ regs[op.r2]
		case tSLL:
			regs[op.rd] = regs[op.r1] << (regs[op.r2] & 31)
		case tSRL:
			regs[op.rd] = regs[op.r1] >> (regs[op.r2] & 31)
		case tSRA:
			regs[op.rd] = uint32(int32(regs[op.r1]) >> (regs[op.r2] & 31))
		case tSLT:
			regs[op.rd] = b2u(int32(regs[op.r1]) < int32(regs[op.r2]))
		case tSLTU:
			regs[op.rd] = b2u(regs[op.r1] < regs[op.r2])
		case tMUL:
			regs[op.rd] = regs[op.r1] * regs[op.r2]
		case tDIV:
			d := int32(regs[op.r2])
			if d == 0 {
				exTrap, exISR = isa.TrapArith, pg.words[slot+uint32(op.pos)]
				exIOR = entryVA + uint32(op.pos)*4
				goto trapOp
			}
			n := int32(regs[op.r1])
			q := uint32(n) // overflow: defined as saturating
			if n != -1<<31 || d != -1 {
				q = uint32(n / d)
			}
			if op.rd != 0 {
				regs[op.rd] = q
			}
		case tREM:
			d := int32(regs[op.r2])
			if d == 0 {
				exTrap, exISR = isa.TrapArith, pg.words[slot+uint32(op.pos)]
				exIOR = entryVA + uint32(op.pos)*4
				goto trapOp
			}
			n := int32(regs[op.r1])
			q := uint32(0)
			if n != -1<<31 || d != -1 {
				q = uint32(n % d)
			}
			if op.rd != 0 {
				regs[op.rd] = q
			}
		case tADDI:
			regs[op.rd] = regs[op.r1] + op.imm
		case tANDI:
			regs[op.rd] = regs[op.r1] & op.imm
		case tORI:
			regs[op.rd] = regs[op.r1] | op.imm
		case tXORI:
			regs[op.rd] = regs[op.r1] ^ op.imm
		case tSLTI:
			regs[op.rd] = b2u(int32(regs[op.r1]) < int32(op.imm))
		case tSLTIU:
			regs[op.rd] = b2u(regs[op.r1] < op.imm)
		case tSLLI:
			regs[op.rd] = regs[op.r1] << op.imm
		case tSRLI:
			regs[op.rd] = regs[op.r1] >> op.imm
		case tSRAI:
			regs[op.rd] = uint32(int32(regs[op.r1]) >> op.imm)
		case tLI:
			regs[op.rd] = op.imm

		case tLDW:
			va := regs[op.r1] + op.imm
			if va&3 != 0 {
				exTrap, exISR, exIOR = isa.TrapAlign, 0, va
				goto trapOp
			}
			pa := va
			if virt {
				if vpn := va >> isa.PageShift; vpn == dVPN {
					// Repeat access to the cached page: the interior
					// flush/touch pairs of a same-page run collapse into
					// the one applied at first use (order-equivalent, like
					// the deferred fetch touch); the hit still counts.
					tlb.Stats.Hits++
				} else {
					tlb.flushPending()
					e, idx, ok := tlb.probeIndex(vpn)
					if !ok {
						tlb.Stats.Misses++
						exTrap, exISR, exIOR = isa.TrapDTLBMiss, 0, va
						goto trapOp
					}
					tlb.touch(idx)
					tlb.Stats.Hits++
					dVPN, dSlot, dPPN = vpn, idx, e.PPN
					dRdOK = permittedFlags(e.Flags, accessRead, pl)
					dWrOK = permittedFlags(e.Flags, accessWrite, pl)
					// Re-arm the deferred fetch touch here: it stays
					// armed for the rest of the call (nothing below
					// flushes on the success paths), which is exactly
					// the per-op re-arm the exact path performs.
					tlb.pending = fetchSlot
				}
				if !dRdOK {
					// Replay the trap-time recency Step leaves: the
					// deferred fetch touch applies, then the data page
					// becomes most recent (redundant when the entry was
					// just filled: re-touching the newest slot and
					// flushing an empty pending preserve order).
					tlb.flushPending()
					tlb.touch(dSlot)
					exTrap, exISR, exIOR = isa.TrapAccess, 0, va
					goto trapOp
				}
				pa = dPPN<<isa.PageShift | va&isa.PageMask
			}
			var v uint32
			slow := pa-MMIOBase < MMIOSize || pa > memTop-4
			if !slow {
				// Aligned: the word cannot cross its frame.
				v = binary.LittleEndian.Uint32(frames[pa>>isa.PageShift][pa&isa.PageMask:])
			} else {
				lv, ltr := m.loadPhys(pa, 4)
				if ltr != isa.TrapNone {
					if virt {
						tlb.flushPending()
						tlb.touch(dSlot)
					}
					exTrap, exISR, exIOR = ltr, 0, va
					goto trapOp
				}
				v = lv
			}
			if op.rd != 0 {
				regs[op.rd] = v
			}
			if slow && (pg.gen != gen0 || (checkIRQ && m.CRs[isa.CREIRR]&m.CRs[isa.CREIEM] != 0)) {
				goto ldResync
			}
		case tLDH:
			va := regs[op.r1] + op.imm
			if va&1 != 0 {
				exTrap, exISR, exIOR = isa.TrapAlign, 0, va
				goto trapOp
			}
			pa := va
			if virt {
				if vpn := va >> isa.PageShift; vpn == dVPN {
					// Repeat access to the cached page: the interior
					// flush/touch pairs of a same-page run collapse into
					// the one applied at first use (order-equivalent, like
					// the deferred fetch touch); the hit still counts.
					tlb.Stats.Hits++
				} else {
					tlb.flushPending()
					e, idx, ok := tlb.probeIndex(vpn)
					if !ok {
						tlb.Stats.Misses++
						exTrap, exISR, exIOR = isa.TrapDTLBMiss, 0, va
						goto trapOp
					}
					tlb.touch(idx)
					tlb.Stats.Hits++
					dVPN, dSlot, dPPN = vpn, idx, e.PPN
					dRdOK = permittedFlags(e.Flags, accessRead, pl)
					dWrOK = permittedFlags(e.Flags, accessWrite, pl)
					// Re-arm the deferred fetch touch here: it stays
					// armed for the rest of the call (nothing below
					// flushes on the success paths), which is exactly
					// the per-op re-arm the exact path performs.
					tlb.pending = fetchSlot
				}
				if !dRdOK {
					// Replay the trap-time recency Step leaves: the
					// deferred fetch touch applies, then the data page
					// becomes most recent (redundant when the entry was
					// just filled: re-touching the newest slot and
					// flushing an empty pending preserve order).
					tlb.flushPending()
					tlb.touch(dSlot)
					exTrap, exISR, exIOR = isa.TrapAccess, 0, va
					goto trapOp
				}
				pa = dPPN<<isa.PageShift | va&isa.PageMask
			}
			var v uint32
			slow := pa-MMIOBase < MMIOSize || pa > memTop-2
			if !slow {
				v = uint32(binary.LittleEndian.Uint16(frames[pa>>isa.PageShift][pa&isa.PageMask:]))
			} else {
				lv, ltr := m.loadPhys(pa, 2)
				if ltr != isa.TrapNone {
					if virt {
						tlb.flushPending()
						tlb.touch(dSlot)
					}
					exTrap, exISR, exIOR = ltr, 0, va
					goto trapOp
				}
				v = lv
			}
			if op.rd != 0 {
				regs[op.rd] = v
			}
			if slow && (pg.gen != gen0 || (checkIRQ && m.CRs[isa.CREIRR]&m.CRs[isa.CREIEM] != 0)) {
				goto ldResync
			}
		case tLDB:
			va := regs[op.r1] + op.imm
			pa := va
			if virt {
				if vpn := va >> isa.PageShift; vpn == dVPN {
					// Repeat access to the cached page: the interior
					// flush/touch pairs of a same-page run collapse into
					// the one applied at first use (order-equivalent, like
					// the deferred fetch touch); the hit still counts.
					tlb.Stats.Hits++
				} else {
					tlb.flushPending()
					e, idx, ok := tlb.probeIndex(vpn)
					if !ok {
						tlb.Stats.Misses++
						exTrap, exISR, exIOR = isa.TrapDTLBMiss, 0, va
						goto trapOp
					}
					tlb.touch(idx)
					tlb.Stats.Hits++
					dVPN, dSlot, dPPN = vpn, idx, e.PPN
					dRdOK = permittedFlags(e.Flags, accessRead, pl)
					dWrOK = permittedFlags(e.Flags, accessWrite, pl)
					// Re-arm the deferred fetch touch here: it stays
					// armed for the rest of the call (nothing below
					// flushes on the success paths), which is exactly
					// the per-op re-arm the exact path performs.
					tlb.pending = fetchSlot
				}
				if !dRdOK {
					// Replay the trap-time recency Step leaves: the
					// deferred fetch touch applies, then the data page
					// becomes most recent (redundant when the entry was
					// just filled: re-touching the newest slot and
					// flushing an empty pending preserve order).
					tlb.flushPending()
					tlb.touch(dSlot)
					exTrap, exISR, exIOR = isa.TrapAccess, 0, va
					goto trapOp
				}
				pa = dPPN<<isa.PageShift | va&isa.PageMask
			}
			var v uint32
			slow := pa-MMIOBase < MMIOSize || pa > memTop-1
			if !slow {
				v = uint32(frames[pa>>isa.PageShift][pa&isa.PageMask])
			} else {
				lv, ltr := m.loadPhys(pa, 1)
				if ltr != isa.TrapNone {
					if virt {
						tlb.flushPending()
						tlb.touch(dSlot)
					}
					exTrap, exISR, exIOR = ltr, 0, va
					goto trapOp
				}
				v = lv
			}
			if op.rd != 0 {
				regs[op.rd] = v
			}
			if slow && (pg.gen != gen0 || (checkIRQ && m.CRs[isa.CREIRR]&m.CRs[isa.CREIEM] != 0)) {
				goto ldResync
			}

		case tSTW:
			va := regs[op.r1] + op.imm
			if va&3 != 0 {
				exTrap, exISR, exIOR = isa.TrapAlign, 0, va
				goto trapOp
			}
			pa := va
			if virt {
				if vpn := va >> isa.PageShift; vpn == dVPN {
					// Repeat access to the cached page: the interior
					// flush/touch pairs of a same-page run collapse into
					// the one applied at first use (order-equivalent, like
					// the deferred fetch touch); the hit still counts.
					tlb.Stats.Hits++
				} else {
					tlb.flushPending()
					e, idx, ok := tlb.probeIndex(vpn)
					if !ok {
						tlb.Stats.Misses++
						exTrap, exISR, exIOR = isa.TrapDTLBMiss, 0, va
						goto trapOp
					}
					tlb.touch(idx)
					tlb.Stats.Hits++
					dVPN, dSlot, dPPN = vpn, idx, e.PPN
					dRdOK = permittedFlags(e.Flags, accessRead, pl)
					dWrOK = permittedFlags(e.Flags, accessWrite, pl)
					// Re-arm the deferred fetch touch here: it stays
					// armed for the rest of the call (nothing below
					// flushes on the success paths), which is exactly
					// the per-op re-arm the exact path performs.
					tlb.pending = fetchSlot
				}
				if !dWrOK {
					// Replay the trap-time recency Step leaves: the
					// deferred fetch touch applies, then the data page
					// becomes most recent (redundant when the entry was
					// just filled: re-touching the newest slot and
					// flushing an empty pending preserve order).
					tlb.flushPending()
					tlb.touch(dSlot)
					exTrap, exISR, exIOR = isa.TrapAccess, 0, va
					goto trapOp
				}
				pa = dPPN<<isa.PageShift | va&isa.PageMask
			}
			if pa-MMIOBase >= MMIOSize && pa <= memTop-4 && owned[pa>>(isa.PageShift+6)]&(1<<((pa>>isa.PageShift)&63)) != 0 {
				// Inline invalidateWord: the aligned word store covers
				// exactly one decoded slot. Unowned (COW-shared) pages
				// take the storePhys branch below, which either skips an
				// equal store or faults the page private.
				if dp := m.pages[pa>>isa.PageShift]; dp != nil {
					s := (pa & isa.PageMask) >> 2
					b := uint64(1) << (s & 63)
					if dp.valid[s>>6]&b != 0 {
						dp.valid[s>>6] &^= b
					}
					if dp.cover[s>>6]&b != 0 {
						dp.dropTraces()
					}
					if dp.traceAt[s] != 0 {
						dp.traceAt[s] = 0
					}
				}
				binary.LittleEndian.PutUint32(frames[pa>>isa.PageShift][pa&isa.PageMask:], regs[op.rd])
				if pg.gen != gen0 {
					goto stResync
				}
			} else {
				if str := m.storePhys(pa, 4, regs[op.rd]); str != isa.TrapNone {
					if virt {
						tlb.flushPending()
						tlb.touch(dSlot)
					}
					exTrap, exISR, exIOR = str, 0, va
					goto trapOp
				}
				if pg.gen != gen0 || (checkIRQ && m.CRs[isa.CREIRR]&m.CRs[isa.CREIEM] != 0) {
					goto stResync
				}
			}
		case tSTH:
			va := regs[op.r1] + op.imm
			if va&1 != 0 {
				exTrap, exISR, exIOR = isa.TrapAlign, 0, va
				goto trapOp
			}
			pa := va
			if virt {
				if vpn := va >> isa.PageShift; vpn == dVPN {
					// Repeat access to the cached page: the interior
					// flush/touch pairs of a same-page run collapse into
					// the one applied at first use (order-equivalent, like
					// the deferred fetch touch); the hit still counts.
					tlb.Stats.Hits++
				} else {
					tlb.flushPending()
					e, idx, ok := tlb.probeIndex(vpn)
					if !ok {
						tlb.Stats.Misses++
						exTrap, exISR, exIOR = isa.TrapDTLBMiss, 0, va
						goto trapOp
					}
					tlb.touch(idx)
					tlb.Stats.Hits++
					dVPN, dSlot, dPPN = vpn, idx, e.PPN
					dRdOK = permittedFlags(e.Flags, accessRead, pl)
					dWrOK = permittedFlags(e.Flags, accessWrite, pl)
					// Re-arm the deferred fetch touch here: it stays
					// armed for the rest of the call (nothing below
					// flushes on the success paths), which is exactly
					// the per-op re-arm the exact path performs.
					tlb.pending = fetchSlot
				}
				if !dWrOK {
					// Replay the trap-time recency Step leaves: the
					// deferred fetch touch applies, then the data page
					// becomes most recent (redundant when the entry was
					// just filled: re-touching the newest slot and
					// flushing an empty pending preserve order).
					tlb.flushPending()
					tlb.touch(dSlot)
					exTrap, exISR, exIOR = isa.TrapAccess, 0, va
					goto trapOp
				}
				pa = dPPN<<isa.PageShift | va&isa.PageMask
			}
			if pa-MMIOBase >= MMIOSize && pa <= memTop-2 && owned[pa>>(isa.PageShift+6)]&(1<<((pa>>isa.PageShift)&63)) != 0 {
				if dp := m.pages[pa>>isa.PageShift]; dp != nil {
					s := (pa & isa.PageMask) >> 2
					b := uint64(1) << (s & 63)
					if dp.valid[s>>6]&b != 0 {
						dp.valid[s>>6] &^= b
					}
					if dp.cover[s>>6]&b != 0 {
						dp.dropTraces()
					}
					if dp.traceAt[s] != 0 {
						dp.traceAt[s] = 0
					}
				}
				binary.LittleEndian.PutUint16(frames[pa>>isa.PageShift][pa&isa.PageMask:], uint16(regs[op.rd]))
				if pg.gen != gen0 {
					goto stResync
				}
			} else {
				if str := m.storePhys(pa, 2, regs[op.rd]); str != isa.TrapNone {
					if virt {
						tlb.flushPending()
						tlb.touch(dSlot)
					}
					exTrap, exISR, exIOR = str, 0, va
					goto trapOp
				}
				if pg.gen != gen0 || (checkIRQ && m.CRs[isa.CREIRR]&m.CRs[isa.CREIEM] != 0) {
					goto stResync
				}
			}
		case tSTB:
			va := regs[op.r1] + op.imm
			pa := va
			if virt {
				if vpn := va >> isa.PageShift; vpn == dVPN {
					// Repeat access to the cached page: the interior
					// flush/touch pairs of a same-page run collapse into
					// the one applied at first use (order-equivalent, like
					// the deferred fetch touch); the hit still counts.
					tlb.Stats.Hits++
				} else {
					tlb.flushPending()
					e, idx, ok := tlb.probeIndex(vpn)
					if !ok {
						tlb.Stats.Misses++
						exTrap, exISR, exIOR = isa.TrapDTLBMiss, 0, va
						goto trapOp
					}
					tlb.touch(idx)
					tlb.Stats.Hits++
					dVPN, dSlot, dPPN = vpn, idx, e.PPN
					dRdOK = permittedFlags(e.Flags, accessRead, pl)
					dWrOK = permittedFlags(e.Flags, accessWrite, pl)
					// Re-arm the deferred fetch touch here: it stays
					// armed for the rest of the call (nothing below
					// flushes on the success paths), which is exactly
					// the per-op re-arm the exact path performs.
					tlb.pending = fetchSlot
				}
				if !dWrOK {
					// Replay the trap-time recency Step leaves: the
					// deferred fetch touch applies, then the data page
					// becomes most recent (redundant when the entry was
					// just filled: re-touching the newest slot and
					// flushing an empty pending preserve order).
					tlb.flushPending()
					tlb.touch(dSlot)
					exTrap, exISR, exIOR = isa.TrapAccess, 0, va
					goto trapOp
				}
				pa = dPPN<<isa.PageShift | va&isa.PageMask
			}
			if pa-MMIOBase >= MMIOSize && pa <= memTop-1 && owned[pa>>(isa.PageShift+6)]&(1<<((pa>>isa.PageShift)&63)) != 0 {
				if dp := m.pages[pa>>isa.PageShift]; dp != nil {
					s := (pa & isa.PageMask) >> 2
					b := uint64(1) << (s & 63)
					if dp.valid[s>>6]&b != 0 {
						dp.valid[s>>6] &^= b
					}
					if dp.cover[s>>6]&b != 0 {
						dp.dropTraces()
					}
					if dp.traceAt[s] != 0 {
						dp.traceAt[s] = 0
					}
				}
				frames[pa>>isa.PageShift][pa&isa.PageMask] = byte(regs[op.rd])
				if pg.gen != gen0 {
					goto stResync
				}
			} else {
				if str := m.storePhys(pa, 1, regs[op.rd]); str != isa.TrapNone {
					if virt {
						tlb.flushPending()
						tlb.touch(dSlot)
					}
					exTrap, exISR, exIOR = str, 0, va
					goto trapOp
				}
				if pg.gen != gen0 || (checkIRQ && m.CRs[isa.CREIRR]&m.CRs[isa.CREIEM] != 0) {
					goto stResync
				}
			}

		case tBEQ:
			if regs[op.r1] == regs[op.r2] {
				goto taken
			}
		case tBNE:
			if regs[op.r1] != regs[op.r2] {
				goto taken
			}
		case tBLT:
			if int32(regs[op.r1]) < int32(regs[op.r2]) {
				goto taken
			}
		case tBGE:
			if int32(regs[op.r1]) >= int32(regs[op.r2]) {
				goto taken
			}
		case tBLTU:
			if regs[op.r1] < regs[op.r2] {
				goto taken
			}
		case tBGEU:
			if regs[op.r1] >= regs[op.r2] {
				goto taken
			}
		case tBL:
			if op.rd != 0 {
				regs[op.rd] = (entryVA + op.aux) | pl
			}
			goto taken
		case tBV:
			totR += uint64(op.pos) + 1
			totLd += uint64(op.ld)
			totSt += uint64(op.st)
			totBr += uint64(op.br) + 1
			allowed -= uint64(op.pos) + 1
			nextVA = regs[op.r1] &^ 3
			goto link

		case tFADDIBEQ:
			v := regs[op.r1] + op.imm
			regs[op.rd] = v
			if v == 0 {
				goto takenF
			}
		case tFADDIBNE:
			v := regs[op.r1] + op.imm
			regs[op.rd] = v
			if v != 0 {
				goto takenF
			}
		case tFANDIBEQ:
			v := regs[op.r1] & op.imm
			regs[op.rd] = v
			if v == 0 {
				goto takenF
			}
		case tFANDIBNE:
			v := regs[op.r1] & op.imm
			regs[op.rd] = v
			if v != 0 {
				goto takenF
			}
		case tFSLTIBEQ:
			v := b2u(int32(regs[op.r1]) < int32(op.imm))
			regs[op.rd] = v
			if v == 0 {
				goto takenF
			}
		case tFSLTIBNE:
			v := b2u(int32(regs[op.r1]) < int32(op.imm))
			regs[op.rd] = v
			if v != 0 {
				goto takenF
			}
		}
		i++
		continue

	taken:
		// A conditional branch (or BL) took its precomputed target.
		totR += uint64(op.pos) + 1
		totLd += uint64(op.ld)
		totSt += uint64(op.st)
		totBr += uint64(op.br) + 1
		allowed -= uint64(op.pos) + 1
		nextVA = entryVA + op.imm
		if nextVA == entryVA && uint64(tr.ilen) <= allowed {
			i = 0
			goto body // self-loop: restart without re-linking
		}
		goto link

	takenF:
		// Fused compare+branch taken: the pair retires as two
		// instructions.
		totR += uint64(op.pos) + 2
		totLd += uint64(op.ld)
		totSt += uint64(op.st)
		totBr += uint64(op.br) + 1
		allowed -= uint64(op.pos) + 2
		nextVA = entryVA + op.aux
		if nextVA == entryVA && uint64(tr.ilen) <= allowed {
			i = 0
			goto body
		}
		goto link

	ldResync:
		// The load retired but had side effects that must resync
		// (MMIO device work, or invalidation of this page's traces).
		totR += uint64(op.pos) + 1
		totLd += uint64(op.ld) + 1
		totSt += uint64(op.st)
		totBr += uint64(op.br)
		m.PC = entryVA + (uint32(op.pos)+1)*4
		goto done

	stResync:
		// The store retired but invalidated this page's traces (or an
		// MMIO store raised an interrupt line): exit after it, exactly
		// where Step would notice.
		totR += uint64(op.pos) + 1
		totLd += uint64(op.ld)
		totSt += uint64(op.st) + 1
		totBr += uint64(op.br)
		m.PC = entryVA + (uint32(op.pos)+1)*4
		goto done

	trapOp:
		// Synchronous trap: the op did not retire. Reconstruct the
		// faulting PC and the Inst/Raw detail from the decoded page.
		m.PC = entryVA + uint32(op.pos)*4
		totR += uint64(op.pos)
		totLd += uint64(op.ld)
		totSt += uint64(op.st)
		totBr += uint64(op.br)
		m.Stats.Traps++
		fs := slot + uint32(op.pos)
		m.tres = StepResult{Trap: exTrap, ISR: exISR, IOR: exIOR, Inst: pg.insts[fs], Raw: pg.words[fs]}
		exKind = texTrap
		goto done
	}
	// Ran off the end of the trace: the next instruction follows it.
	totR += uint64(tr.ilen)
	totLd += uint64(tr.loads)
	totSt += uint64(tr.stores)
	totBr += uint64(tr.branches)
	allowed -= uint64(tr.ilen)
	nextVA = entryVA + tr.ilen*4

link:
	if nextVA&^uint32(isa.PageMask) != pageVA {
		m.PC = nextVA
		goto done
	}
	slot = (nextVA & isa.PageMask) >> 2
	entryVA = nextVA
	if ti := pg.traceAt[slot]; ti != 0 && ti < traceVisited {
		tr = pg.traces[ti-1] // hot case: already built
	} else if ti == traceVisited {
		tr = m.buildTrace(pg, base, slot)
	} else {
		if ti == 0 {
			pg.traceAt[slot] = traceVisited
			m.runGen++
		}
		tr = nil
	}
	if tr == nil || uint64(tr.ilen) > allowed {
		m.PC = nextVA
		goto done
	}
	goto chain

done:
	regs[0] = r0
	m.Regs = regs
	m.cycles += totR
	m.Stats.Instructions += totR
	m.Stats.Loads += totLd
	m.Stats.Stores += totSt
	m.Stats.Branches += totBr
	if t := m.CRs[isa.CRITMR]; t != 0 {
		t -= uint32(totR)
		m.CRs[isa.CRITMR] = t
		if t == 0 {
			m.RaiseIRQ(0)
		}
	}
	if m.PSW&isa.PSWR != 0 {
		m.CRs[isa.CRRCTR] -= uint32(totR)
	}
	hits := uint64(0)
	if fetchSlot >= 0 {
		hits = totR
		if exKind == texTrap {
			hits++ // the faulting instruction's fetch still hit
		}
	}
	return hits, exKind
}
