package machine

import (
	"repro/internal/isa"
)

// The run memo: one remembered Run call. A guest that waits for I/O
// under a hypervisor spins on a device register, and every read of that
// register traps (§3.2's environment instructions), so an idle replica
// is a stream of Run calls that each retire two or three
// register-to-register instructions and end on the same trap, from the
// same state: the hypervisor emulates the load — writes the same status
// into the same register, steps the PC — and calls Run again. Such a
// call costs ≈ 100 ns of fixed entry and exit against ≈ 3 ns per
// instruction. The memo remembers the last one as (everything it could
// read) → (everything it wrote), and the next call that enters from an
// equal state applies the result instead of executing.
//
// It is derived state exactly like the decoded-page cache and the
// traces: not captured, dropped by RestoreState and Release, absent
// under Config.NoTraces. And it is stamp-exact, where traces are only
// order-equivalent: a hit leaves the machine as executing the call would
// have left it — the LRU clock and every stamp included, which is more
// than a capture's encoding shows (the order of the stamps) — so no
// golden, digest or transferred image can tell whether a run hit.
//
// What is recorded. Only a call that
//
//   - ended on a synchronous trap other than a machine check (not
//     recovery-counter expiry, an external interrupt, HALT, WFI, DIAG or
//     budget expiry; a machine check can depend on the bus), after
//     retiring n <= memoMaxInstrs instructions;
//   - retired no load, no store, no privileged and no environment
//     instruction (the four Stats classes stood still), so it read no
//     data memory, no device, no clock and no control register, and
//     wrote nothing but general registers;
//   - changed no PSW bit and no control register but the two that count
//     retirements down (RCTR, ITMR), and left the TLB's contents alone
//     (no miss, insert, evict or purge);
//   - never left the decoded-page loop for the Step fallback;
//   - marked and built no trace (runGen stood still; a dropped trace is
//     a store), and ran with budget for more than its n instructions.
//
// What a hit requires — the key, everything such a call can read: PC,
// PSW, all 32 general registers, EIRR and EIEM (the interrupt test at
// every resync), the TLB's content generation and its deferred fetch
// touch, the guest store count (Stats.Stores: the code it fetches is in
// RAM) and runGen (RAM written by anyone else, and the trace entry state
// that picks Run's path). Left out, each for a reason: the other control
// registers — only MFCTL reads them, and a call that retired one is not
// recorded; data memory — no load retired, and the trapping instruction,
// if it is a load or store, trapped on its translation or its address
// before touching memory; LRU stamps — no entry is evicted, and a touch
// writes stamps relative to the clock, so the replay is relative too;
// cycles, statistics, RCTR and ITMR — written, never read, except as
// budget. Beyond the key, the budget: min(max, RCTR under PSW.R, ITMR if
// armed) must be at least n + 1, room for the n instructions and the one
// that traps.
//
// Why n + 1 suffices. The registers, PC, trap and statistics of such a
// call are the same whichever way Run dispatches it, but with an LRU TLB
// in virtual mode the stamps are not: a load that traps inside a trace
// replays Step's recency as four touches, the same load on the
// per-instruction loop makes two (same order, different clock). Which of
// the two runs it depends on the trace entry state — pinned by runGen —
// and on nothing else: Run's path does not depend on the budget. A trace
// that does not fit runs the ops that do (trace.fit), so up to where a
// call's budget ends it takes the path any larger budget takes; and with
// n + 1 the budget ends past the trapping instruction, which no fused
// compare+branch can be. So the call replays stamp for stamp under every
// budget that lets it reach its trap.
//
// The arm rule. Comparing and recording cost copies of the entry state,
// so Run pays for them only where it has seen they can pay back — three
// steps, each something it observes, none an option. Armed: the previous
// call ended on a synchronous trap after at most memoMaxInstrs
// instructions, a trap storm; a chunk-sized call pays one flag test.
// (Capturing on every call cost ≈ 20 % on the disk workload and ≈ 8 % on
// the fleet, whose calls are 256-instruction chunks.) Noted: an armed
// call that misses, and entered where the call before it entered — a
// loop around a trap, not a line of traps — notes its key. Recorded: the
// next call enters from the noted key, so the state has come twice
// running, and is executed with a record's bookkeeping. A counted loop
// around a trap returns to the PC and never to the state: it is noted
// every time and recorded never (recording it every time read 1.7 %
// slower on the disk workload, 766,456 records and no hit).

const (
	// memoMaxInstrs bounds both what arms the memo and what it records.
	memoMaxInstrs = 32
	// memoMaxTouch bounds the LRU touches one recorded call may make: the
	// deferred slot, a fetch slot per page, the trapping access's page.
	memoMaxTouch = 4
)

// debugNoMemo, when set (tests; spec.go), keeps the memo from ever arming:
// the reference arm of the polling differential.
var debugNoMemo bool

// MemoStats counts what Run retired without executing it: Run calls, how
// many of them were answered from the memo, and how many were recorded
// into it; and Spun, the instructions of spinning self-loops the trace
// executor retired in closed form (trace_exec.go, Spins). It is
// deliberately not part of Stats or State — no encoded byte may depend
// on whether a call hit or a spin was fast-forwarded.
type MemoStats struct {
	Calls, Hits, Records uint64
	Spun                 uint64
}

// MemoStats returns the machine's run-memo and spin counters.
func (m *Machine) MemoStats() MemoStats { return m.memo.stats }

// memoTouch is one replayed LRU touch: the slot's stamp as an offset
// from the policy clock at entry.
type memoTouch struct {
	slot int
	off  uint64
}

type runMemo struct {
	// armed: the previous call ended a trap storm's way (see arm).
	armed bool
	// entryPC is where the previous call entered.
	entryPC uint32
	// valid: the entry below describes a recorded call. Otherwise its
	// key, if any, is only noted.
	valid bool
	// stepped: the call in flight took the Step fallback.
	stepped bool
	// hit: the last call was answered from the entry (see Recalled).
	hit bool

	// The key.
	regs       [isa.NumRegs]uint32
	pc, psw    uint32
	eirr, eiem uint32
	tlbGen     uint64
	pending    int
	stores     uint64
	runGen     uint64

	// The result.
	n               uint64
	outRegs         [isa.NumRegs]uint32
	outPC           uint32
	res             StepResult
	branches, traps uint64
	tlbHits         uint64
	outPending      int
	stamp           uint64 // LRU clock advance
	touched         [memoMaxTouch]memoTouch
	ntouched        int

	stats MemoStats
}

// drop forgets the recorded call and disarms (RestoreState, Release).
func (mm *runMemo) drop() { mm.armed, mm.valid, mm.hit = false, false, false }

// arm applies the arm rule to the call that just returned: every call
// that executed passes through here, and none that was recalled.
func (m *Machine) arm(rr *RunResult) {
	m.memo.hit = false
	m.memo.armed = rr.Trap != isa.TrapNone && rr.Trap != isa.TrapRecovery && rr.Trap != isa.TrapExtIntr &&
		rr.Executed <= memoMaxInstrs && m.traceOn && !debugNoMemo
}

// memoBudget is how many instructions may retire before the caller's
// limit, the recovery counter or the interval timer intervenes.
func (m *Machine) memoBudget(limit uint64) uint64 {
	b := limit
	if m.PSW&isa.PSWR != 0 {
		r := int32(m.CRs[isa.CRRCTR])
		if r <= 0 {
			return 0
		}
		b = min(b, uint64(r))
	}
	if t := uint64(m.CRs[isa.CRITMR]); t != 0 {
		b = min(b, t)
	}
	return b
}

// atKey reports whether the machine stands in the entry's key state.
func (m *Machine) atKey() bool {
	mm := &m.memo
	tlb := m.TLB
	return mm.pc == m.PC && mm.psw == m.PSW &&
		mm.eirr == m.CRs[isa.CREIRR] && mm.eiem == m.CRs[isa.CREIEM] &&
		mm.tlbGen == tlb.gen && mm.pending == tlb.pending &&
		mm.stores == m.Stats.Stores && mm.runGen == m.runGen && mm.regs == m.Regs
}

// replay applies the recorded call j times over: a hit is a replay of
// one. What a call accumulates — cycles, statistics, TLB hits, the LRU
// clock, the RCTR and ITMR countdowns — accumulates j-fold; what it
// overwrites — registers, PC, the deferred touch, each touched slot's
// stamp — is left as the last of the j calls leaves it. A touch stamps
// its slot off past the clock its call found, and that call found the
// clock j-1 advances on.
func (m *Machine) replay(j uint64) {
	mm := &m.memo
	tlb := m.TLB
	m.Regs, m.PC = mm.outRegs, mm.outPC
	m.cycles += j * mm.n
	m.Stats.Instructions += j * mm.n
	m.Stats.Branches += j * mm.branches
	m.Stats.Traps += j * mm.traps
	if m.PSW&isa.PSWR != 0 {
		m.CRs[isa.CRRCTR] -= uint32(j * mm.n)
	}
	if m.CRs[isa.CRITMR] != 0 {
		m.CRs[isa.CRITMR] -= uint32(j * mm.n) // stays armed: it held more than n
	}
	tlb.Stats.Hits += j * mm.tlbHits
	if lru := tlb.lru; lru != nil {
		last := lru.stamp + (j-1)*mm.stamp
		for _, t := range mm.touched[:mm.ntouched] {
			lru.last[t.slot] = last + t.off
		}
		lru.stamp += j * mm.stamp
	}
	tlb.pending = mm.outPending
	mm.stats.Hits += j
	mm.hit = true
}

// Recalled reports whether the last Run call was answered from the memo
// rather than executed. No architected or encoded state depends on it; a
// caller that emulates the trapped instruction asks it to learn that the
// poll it is in is one the machine remembers (see Poll).
func (m *Machine) Recalled() bool { return m.memo.hit }

// Poll reports the call the memo would answer Run(limit) with, were it
// made now: it would retire n instructions and end as the recalled call
// before it did, provided — ok — the machine stands in the entry's key
// state and the budget (limit, and RCTR and ITMR as they stand) exceeds
// n. A caller whose emulation of the trapped instruction returns the
// machine to that key every time (an idle guest's poll of a register
// that reads the same) can then count how many further calls would be
// answered the same way — the i-th needs its own budget to exceed n —
// and have them all applied at once with ReplayHits.
func (m *Machine) Poll(limit uint64) (n uint64, ok bool) {
	mm := &m.memo
	if !mm.armed || !mm.valid || m.halted || !m.atKey() || m.memoBudget(limit) <= mm.n {
		return 0, false
	}
	return mm.n, true
}

// ReplayHits leaves the machine as j consecutive Run calls leave it, each
// answered from the memo, between which the caller restored the key state
// (re-emulated the trapped instruction) and touched nothing else: RCTR
// and ITMR count down j calls' worth from where they stand. The caller
// has just had ok from Poll, and answers for the budget of every call
// after the first.
func (m *Machine) ReplayHits(j uint64) {
	m.memo.stats.Calls += j
	m.replay(j)
}

// runArmed is Run inside a trap storm: answer from the memo, or execute
// and — if this entry state has now come twice running — record.
func (m *Machine) runArmed(limit uint64, again bool, rr *RunResult) {
	mm := &m.memo
	tlb := m.TLB
	same := m.atKey()
	switch {
	case same && mm.valid && !m.halted:
		if m.memoBudget(limit) <= mm.n {
			// The same poll with no room for its trap: execute it, and keep
			// the entry for the next epoch.
			break
		}
		m.replay(1)
		rr.StepResult, rr.Executed = mm.res, mm.n
		return
	case same && again:
		m.record(limit, rr)
		return
	case again:
		// A state not seen at this PC the call before: note it, and
		// remember the call if it comes again. (A counted loop around a
		// trap comes back to the PC and never to the state; a line of
		// traps, a device being programmed, not even to the PC.)
		mm.valid = false
		mm.regs, mm.pc, mm.psw = m.Regs, m.PC, m.PSW
		mm.eirr, mm.eiem = m.CRs[isa.CREIRR], m.CRs[isa.CREIEM]
		mm.tlbGen, mm.pending = tlb.gen, tlb.pending
		mm.stores, mm.runGen = m.Stats.Stores, m.runGen
	}
	m.run(limit, rr)
	m.arm(rr)
}

// record executes a call whose entry state is the noted key and, if it
// proves to be a function of that state, remembers what it did.
func (m *Machine) record(limit uint64, rr *RunResult) {
	mm := &m.memo
	tlb := m.TLB
	mm.valid, mm.stepped = false, false
	st, ts, budget := m.Stats, tlb.Stats, m.memoBudget(limit)
	var stamp uint64
	if tlb.lru != nil {
		stamp = tlb.lru.stamp
	}

	m.run(limit, rr)
	m.arm(rr)

	mm.n = rr.Executed
	switch {
	case !mm.armed, mm.stepped, !tlb.replayable:
	case rr.Trap == isa.TrapMachine:
	case st.Loads != m.Stats.Loads, st.Stores != m.Stats.Stores,
		st.Privileged != m.Stats.Privileged, st.Environment != m.Stats.Environment:
	case mm.psw != m.PSW, mm.eirr != m.CRs[isa.CREIRR]:
	case mm.tlbGen != tlb.gen, ts.Misses != tlb.Stats.Misses, mm.runGen != m.runGen:
	case budget <= mm.n:
	default:
		mm.ntouched = 0
		if lru := tlb.lru; lru != nil {
			// A touch stamps its slot past the clock it found, so the slots
			// this call touched are exactly those stamped past stamp.
			for i, at := range lru.last {
				if at <= stamp {
					continue
				}
				if mm.ntouched == memoMaxTouch {
					return
				}
				mm.touched[mm.ntouched] = memoTouch{slot: i, off: at - stamp}
				mm.ntouched++
			}
			mm.stamp = lru.stamp - stamp
		}
		mm.outRegs, mm.outPC, mm.res = m.Regs, m.PC, rr.StepResult
		mm.branches, mm.traps = m.Stats.Branches-st.Branches, m.Stats.Traps-st.Traps
		mm.tlbHits, mm.outPending = tlb.Stats.Hits-ts.Hits, tlb.pending
		mm.valid = true
		mm.stats.Records++
	}
}
