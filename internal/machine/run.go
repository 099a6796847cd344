package machine

import (
	"repro/internal/isa"
)

// RunResult reports the outcome of a batched Run call: the StepResult
// that ended the run (zero-valued on instruction-count expiry) plus the
// number of instructions that retired during the call.
type RunResult struct {
	StepResult
	// Executed is the number of instructions retired by this Run call.
	// On a trap exit it counts the instructions BEFORE the faulting one
	// (the faulting instruction did not retire), so callers can account
	// guest progress without re-reading the cycle counter.
	Executed uint64
}

// Run executes up to max instructions and returns when the machine traps,
// halts, idles on WFI, retires a DIAG, or the instruction budget expires
// (RunResult zero-valued except Executed). It is the batched equivalent
// of calling Step in a loop and produces bit-identical architected state,
// statistics, and TLB replacement behaviour — the differential tests in
// run_differential_test.go assert this — while hoisting the per-step
// work out of the hot loop:
//
//   - the recovery-counter check becomes an instruction budget computed
//     once per resync (retire still decrements CR[RCTR] per instruction);
//   - the external-interrupt check collapses to a two-load test only
//     when PSW.I is set (under a hypervisor the guest runs with real
//     interrupts disabled, so the check vanishes);
//   - fetch translation, alignment, MMIO and bounds checks are performed
//     once per executed page: the page's physical base is cached and
//     straight-line fetches read the RAM slice directly.
//
// What persists between calls is derived state only, and none of it can
// be seen by a caller that mutates PC, PSW, Regs, CRs, the TLB or memory
// between calls (as the hypervisor does when emulating instructions and
// delivering traps). The hoisted checks and the execution page are
// re-established at the top of every call. The decoded pages and their
// traces are functions of RAM and every write to RAM invalidates what it
// covers. The run memo (memo.go) — the last short, register-only,
// trap-ended call, replayed when the next call enters from an equal
// state — compares everything such a call can read before it answers:
// PC, PSW, every register, EIRR and EIEM by value, the TLB by a
// generation its Insert, Purge and restore advance, RAM by the guest
// store count plus a generation StorePhys32, WriteBytes and RestoreState
// advance; and it replays RCTR and ITMR as the decrements they are, so
// whatever the caller wrote there is what gets decremented. Within a
// call, instructions that can invalidate hoisted state — MTCTL, RFI,
// ITLBI, PTLB — exit the fast loop and resync.
func (m *Machine) Run(max uint64) (rr RunResult) {
	mm := &m.memo
	mm.stats.Calls++
	again := m.PC == mm.entryPC
	mm.entryPC = m.PC
	if mm.armed {
		m.runArmed(max, again, &rr)
	} else {
		m.run(max, &rr)
		m.arm(&rr)
	}
	return rr
}

// run is Run proper: it executes, where Run may remember. The result is
// written through rr, which the caller hands in zeroed.
func (m *Machine) run(max uint64, rr *RunResult) {
	if m.halted {
		rr.Halted = true
		return
	}
	start := m.cycles
	// fetchHits batches the per-fetch TLB hit statistic: the fast loop
	// counts fetches locally and the total lands on exit. Only the
	// total is observable (fetch recency is handled by the deferred
	// pending-touch mechanism, see TLB.flushPending).
	fetchHits := uint64(0)
	tlb := m.TLB
	defer func() {
		tlb.Stats.Hits += fetchHits
		rr.Executed = m.cycles - start
	}()

outer:
	for m.cycles-start < max {
		// Asynchronous conditions, in Step's priority order. These are
		// re-evaluated at every resync point, which by construction is
		// the only place their inputs can have changed.
		if m.PSW&isa.PSWR != 0 && int32(m.CRs[isa.CRRCTR]) <= 0 {
			m.Stats.Traps++
			rr.Trap = isa.TrapRecovery
			return
		}
		checkIRQ := m.PSW&isa.PSWI != 0
		if checkIRQ && m.IRQPending() {
			m.Stats.Traps++
			rr.Trap = isa.TrapExtIntr
			rr.ISR = m.CRs[isa.CREIRR] & m.CRs[isa.CREIEM]
			return
		}

		// Budget: how many instructions may retire before an async
		// condition can possibly fire. The recovery counter decrements
		// once per retirement, so it bounds the batch exactly.
		budget := max - (m.cycles - start)
		if m.PSW&isa.PSWR != 0 {
			if r := uint64(int32(m.CRs[isa.CRRCTR])); r < budget {
				budget = r
			}
		}

		// Establish the execution page: translate once, then fetch
		// straight-line instructions directly from the RAM slice.
		if m.PC%4 != 0 {
			m.Stats.Traps++
			rr.Trap, rr.IOR = isa.TrapAlign, m.PC
			return
		}
		pageVA := m.PC &^ uint32(isa.PageMask)
		var base uint32
		fetchSlot := -1 // TLB slot to touch per fetch; -1 in real mode
		if m.PSW&isa.PSWV != 0 {
			e, idx, ok := m.TLB.probeIndex(m.PC >> isa.PageShift)
			if !ok {
				m.TLB.Stats.Misses++ // the lookup Step would have made
				m.Stats.Traps++
				rr.Trap, rr.IOR = isa.TrapITLBMiss, m.PC
				return
			}
			if !permitted(e, accessExec, m.PL()) {
				m.TLB.touchFetch(idx) // Step's lookup hit before faulting
				m.Stats.Traps++
				rr.Trap, rr.IOR = isa.TrapAccess, m.PC
				return
			}
			base = e.PPN << isa.PageShift
			fetchSlot = idx
		} else {
			base = pageVA
		}
		if !m.plainRAMPage(base) {
			// The page straddles the MMIO window or the end of RAM:
			// rare, so take the exact per-instruction path for one
			// instruction and resync.
			m.memo.stepped = true
			res := m.Step()
			if res.Trap != isa.TrapNone || res.Halted || res.Idle || res.Diag != 0 {
				rr.StepResult = res
				return
			}
			continue
		}

		// Fast loop: dispatch straight from the page's decoded image —
		// no per-instruction translation, bounds, MMIO, alignment,
		// recovery checks, word fetch or decode probe. Stores into the
		// page (from any page) invalidate the covered slot, so
		// self-modifying code re-decodes on the next fetch.
		//
		// Fetch recency is coalesced: the execution slot becomes the
		// TLB's deferred pending touch once here, is re-deferred after
		// any instruction whose data access flushed it, and fetch hit
		// counts accumulate in fetchHits. Entries cannot be evicted
		// mid-loop (the TLB is software-managed and ITLBI/PTLB exit the
		// loop), so the slot index stays valid throughout.
		pl := m.PL()
		pg := m.execPage(base)
		hitInc := uint64(0)
		if fetchSlot >= 0 {
			hitInc = 1
			if tlb.pending != fetchSlot {
				tlb.flushPending()
				tlb.pending = fetchSlot
			}
		}
		// Superblock trace dispatch: execute whole lowered traces until
		// none applies here (see trace.go). On texStep nothing retired
		// and the per-instruction loop below must make progress before
		// trace dispatch is retried, or the two would ping-pong.
		skipTrace := false
		if m.traceOn {
			hits, ex := m.runTraces(pg, base, pageVA, fetchSlot, pl, budget, checkIRQ)
			fetchHits += hits
			switch ex {
			case texTrap:
				rr.StepResult = m.tres
				return
			case texResync:
				continue outer
			}
			skipTrace = true
		}
		for budget > 0 {
			if m.PC&^uint32(isa.PageMask) != pageVA {
				continue outer // page-crossing transfer: re-establish
			}
			slot := (m.PC & isa.PageMask) >> 2
			if m.traceOn && !skipTrace {
				// Back on a trace entry (e.g. after a terminator): bounce
				// out to trace dispatch if the trace's first op fits what
				// remains, as runTraces will find.
				if ti := pg.traceAt[slot]; ti != 0 && ti < traceVisited {
					allowed := budget
					if t := uint64(m.CRs[isa.CRITMR]); t != 0 {
						allowed = min(allowed, t)
					}
					if pg.traces[ti-1].fit(allowed) != 0 {
						continue outer
					}
				} else if ti == traceVisited {
					// Second encounter of a marked entry inside one Run
					// call: resync so trace dispatch compiles it.
					continue outer
				}
			}
			skipTrace = false
			bit := uint64(1) << (slot & 63)
			fetchHits += hitInc
			var in isa.Inst
			var w uint32
			if pg.valid[slot>>6]&bit != 0 {
				in, w = pg.insts[slot], pg.words[slot]
			} else {
				var ok bool
				if in, w, ok = m.fill(pg, base, slot); !ok {
					m.Stats.Traps++
					rr.Trap, rr.ISR, rr.IOR = isa.TrapIllegal, w, m.PC
					return
				}
			}
			if pl != 0 && pg.priv[slot>>6]&bit != 0 {
				m.Stats.Traps++
				rr.Trap, rr.ISR, rr.IOR = isa.TrapPriv, uint32(in.Op), m.PC
				rr.Inst, rr.Raw = in, w
				return
			}
			if !m.execute(in, w) {
				res := m.tres
				if res.Trap != isa.TrapNone {
					res.Inst, res.Raw = in, w
					rr.StepResult = res
					return
				}
				budget--
				if res.Halted || res.Idle || res.Diag != 0 {
					rr.StepResult = res
					return
				}
				// A WFI that completed immediately: fall through to the
				// post-retirement checks like any other instruction.
			} else {
				budget--
			}
			if pg.resync[slot>>6]&bit != 0 {
				// Control state (CRs, PSW, TLB) may have changed:
				// resync the hoisted checks and the cached page.
				continue outer
			}
			if hitInc != 0 {
				// Re-defer the fetch touch: a data access inside execute
				// may have flushed it (the store is a no-op otherwise).
				tlb.pending = fetchSlot
			}
			if checkIRQ && m.IRQPending() {
				// The interval timer (or a device reached through
				// MMIO) raised a line mid-batch: resync so the trap
				// fires before the next instruction, as Step would.
				continue outer
			}
		}
	}
}

// plainRAMPage reports whether the page starting at physical address base
// lies entirely within RAM and entirely outside the MMIO window, so that
// instruction fetches from it need no per-access checks.
func (m *Machine) plainRAMPage(base uint32) bool {
	end := base + isa.PageSize
	if end < base || end > m.memSize {
		return false
	}
	return base >= MMIOBase+MMIOSize || end <= MMIOBase
}
