package machine

// This file implements deterministic capture and restore of complete
// machine state, the substrate of the snapshot/state-transfer subsystem:
// a repaired processor rejoining the replica set receives the acting
// coordinator's machine image (Bressoud & Schneider §5 assume failed
// components are repaired and reintegrated; VMware FT ships live VM
// state the same way), and a checkpointed session verifies its replayed
// state against the captured one.
//
// The capture is exhaustive over ARCHITECTED and MICROARCHITECTURAL
// state that can influence future execution or timing: registers, PC,
// PSW, control registers, all of physical RAM, the halt latch, the
// retired-instruction counter, statistics, and the full TLB including
// replacement-policy recency state (the LRU order, round-robin cursor)
// and the deferred fetch-touch slot. It deliberately EXCLUDES derived
// caches: the decoded-page translation cache and the word-decode memo
// are pure functions of RAM contents and instruction words, and the run
// memo (memo.go) of the state a call entered from, so RestoreState drops
// them and they rebuild on demand — restoring into a machine that
// previously executed different code is safe.
//
// The machine's byte format lives here and nowhere else: State.Code,
// one description of the format that both writes and reads it through
// the leaf codec in internal/snapshot. State is the validate-then-commit
// staging value between the bytes and the machine — a decoded State has
// touched nothing until RestoreState accepts it.

import (
	"bytes"
	"fmt"

	"repro/internal/isa"
	"repro/internal/snapshot"
)

// TLBSlotState is one captured TLB slot with its recency.
type TLBSlotState struct {
	Entry TLBEntry
	// LastUse is the slot's place in the LRU policy's recency order: its
	// rank, from 1 for the least recently used, among the slots ever
	// touched, and zero for a slot never touched (and under every other
	// policy). The rank is all replacement reads — which slot it evicts
	// next — and all that replicas agree on: the LRU clock behind it also
	// counts how Run happened to dispatch (a trace touches a page once
	// where the per-instruction loop touches it per access), so it is not
	// captured.
	LastUse uint64
}

// TLBState is the complete captured TLB: contents, replacement-policy
// state and statistics.
type TLBState struct {
	// Policy is the replacement policy name ("lru", "roundrobin",
	// "random"). Restore requires the target machine to use the same
	// policy; "random" is not restorable (its stream is chip-private,
	// modelling the §3.2 nondeterminism — there is nothing deterministic
	// to transfer).
	Policy string
	Slots  []TLBSlotState
	// Stamp is the LRU policy's clock as restore sets it: the highest
	// rank (zero under every other policy).
	Stamp uint64
	// Next is the round-robin policy's cursor.
	Next int
	// Pending is the deferred fetch-touch slot (-1 none) — part of the
	// recency order, so it must travel with the contents.
	Pending int
	Stats   TLBStats
}

// Page is one captured page of RAM.
type Page struct {
	// Index is the physical page number.
	Index uint32
	// Data holds the page's bytes: a full page, except for the last
	// page of a RAM whose size is not page-aligned.
	Data []byte
}

// State is a complete, self-contained capture of one machine.
type State struct {
	MemBytes uint32
	Regs     [isa.NumRegs]uint32
	PC       uint32
	PSW      uint32
	CRs      [isa.NumCRs]uint32
	Halted   bool
	Cycles   uint64
	Stats    Stats
	// Pages is physical RAM as a canonical sparse page set: strictly
	// ascending Index, no page all zero, and every page absent from it
	// all zero. A capture's pages that are still shared with the base
	// image alias its immutable interned frames; what else they alias
	// depends on who produced the State (CaptureState, BorrowState, a
	// decoding Code).
	Pages []Page
	TLB   TLBState
}

// CaptureState snapshots the machine. Read-only: capture has no effect
// on subsequent execution, and the State is immune to it — privately
// owned pages are deep copies (shared frames are immutable), so the
// capture costs the machine's dirty pages, not its RAM size.
func (m *Machine) CaptureState() State {
	// 16 pages: a booted guest's nonzero pages, typically.
	return m.capture(make([]Page, 0, 16), make([]TLBSlotState, 0, len(m.TLB.slots)), true)
}

// BorrowState is CaptureState without the copies: owned pages alias
// the machine's live frames, and the page list and TLB slots are storage
// the machine keeps, reused by its next BorrowState (and across
// recycling, so a warm borrow allocates nothing). The view is valid only
// until the machine next executes, stores, restores or is borrowed
// again; it is for consumers that encode or compare immediately (session
// capture, state transfer).
func (m *Machine) BorrowState() State {
	s := m.capture(m.borrowed.pages, m.borrowed.slots, false)
	m.borrowed.pages, m.borrowed.slots = s.Pages, s.TLB.Slots
	return s
}

// capture fills a State, its page list appended to pages[:0] and its TLB
// slots to slots[:0].
func (m *Machine) capture(pages []Page, slots []TLBSlotState, copyOwned bool) State {
	return State{
		MemBytes: m.cfg.MemBytes,
		Regs:     m.Regs,
		PC:       m.PC,
		PSW:      m.PSW,
		CRs:      m.CRs,
		Halted:   m.halted,
		Cycles:   m.cycles,
		Stats:    m.Stats,
		Pages:    m.sparsePages(pages[:0], copyOwned),
		TLB:      m.TLB.captureState(slots),
	}
}

// sparsePages appends physical RAM to pages as its canonical sparse page
// set — the one definition of "RAM contents" that capture, Code and
// DigestMemory share. Owned pages alias the live frames unless
// copyOwned.
func (m *Machine) sparsePages(pages []Page, copyOwned bool) []Page {
	for i, fr := range m.frames {
		idx := uint32(i)
		owned := m.ownedPage(idx)
		// The zero test is the intern-time flag for shared frames and
		// one whole-page compare for owned ones.
		if owned && *fr == (ramPage{}) || !owned && m.img.frames[i].zero {
			continue
		}
		data := fr[:m.pageLen(idx)]
		if owned && copyOwned {
			data = bytes.Clone(data)
		}
		pages = append(pages, Page{Index: idx, Data: data})
	}
	return pages
}

// pageLen returns how many bytes of page idx are RAM: a full page,
// except for the last page of a RAM that is not page-aligned.
func (m *Machine) pageLen(idx uint32) uint32 {
	return min(m.memSize-idx<<isa.PageShift, isa.PageSize)
}

// RestoreState overwrites the machine's state with a capture. The
// target must be configured compatibly (same RAM size, TLB geometry and
// replacement policy); the decoded-page cache is invalidated, and the
// machine's own CPUID is preserved — processor identity belongs to the
// chip, not the transferred virtual-machine state (the hypervisor
// virtualizes CPUID anyway). Page data is copied, never retained.
func (m *Machine) RestoreState(s State) error {
	if s.MemBytes != m.memSize {
		return fmt.Errorf("machine: restore: RAM size %d into machine with %d", s.MemBytes, m.memSize)
	}
	for i, pg := range s.Pages {
		if int(pg.Index) >= len(m.frames) || (i > 0 && pg.Index <= s.Pages[i-1].Index) {
			return fmt.Errorf("machine: restore: page %d out of range or out of order", pg.Index)
		}
		if len(pg.Data) != int(m.pageLen(pg.Index)) {
			return fmt.Errorf("machine: restore: page %d has %d bytes, want %d", pg.Index, len(pg.Data), m.pageLen(pg.Index))
		}
	}
	if err := m.TLB.checkRestorable(s.TLB); err != nil {
		return err
	}
	m.Regs = s.Regs
	m.PC = s.PC
	m.PSW = s.PSW
	m.CRs = s.CRs
	m.CRs[isa.CRCPUID] = m.cfg.CPUID // chip identity stays local
	m.halted = s.Halted
	m.cycles = s.Cycles
	m.Stats = s.Stats
	// Restore RAM page-wise; a page absent from the sparse set is zero.
	// Pages whose restored contents equal the shared frame stay (or
	// become again) shared — restoring a capture of a lightly diverged
	// machine re-deduplicates it — and only differing pages hold (or
	// fault) a private frame.
	next := s.Pages
	for i := range m.frames {
		idx := uint32(i)
		var src []byte // nil: the page is zero
		if len(next) > 0 && next[0].Index == idx {
			src, next = next[0].Data, next[1:]
		}
		shared := m.img.frames[i]
		same := shared.zero
		if src != nil {
			same = bytes.Equal(src, shared.data[:len(src)])
		}
		if same {
			if m.ownedPage(idx) {
				m.arena.frames.Put(m.frames[i])
				m.frames[i] = &shared.data
				m.owned[idx>>6] &^= 1 << (idx & 63)
			}
			continue
		}
		m.faultPage(idx)
		if src == nil {
			*m.frames[i] = ramPage{}
		} else {
			copy(m.frames[i][:], src)
		}
	}
	// The decoded-page cache is derived from RAM: drop it wholesale so
	// stale images of the previous contents cannot be dispatched.
	for i := range m.pages {
		m.pages[i] = nil
	}
	// So is the run memo.
	m.memo.drop()
	m.runGen++
	m.TLB.restoreState(s.TLB)
	return nil
}

// captureState snapshots the TLB including policy recency state, its
// slots appended to slots[:0].
func (t *TLB) captureState(slots []TLBSlotState) TLBState {
	s := TLBState{
		Policy:  t.policy.Name(),
		Slots:   slots[:0],
		Pending: t.pending,
		Stats:   t.Stats,
	}
	for _, e := range t.slots {
		s.Slots = append(s.Slots, TLBSlotState{Entry: e})
	}
	switch p := t.policy.(type) {
	case *LRUPolicy:
		// Recency as order: each stamped slot's rank among the stamped
		// slots (no two share a stamp: a touch advances the clock first).
		for i, at := range p.last {
			if at == 0 {
				continue
			}
			rank := uint64(1)
			for _, o := range p.last {
				if o != 0 && o < at {
					rank++
				}
			}
			s.Slots[i].LastUse = rank
			s.Stamp = max(s.Stamp, rank)
		}
	case *RoundRobinPolicy:
		s.Next = p.next
	}
	return s
}

// checkRecency rejects recency no capture writes — so that every state it
// accepts restores to a TLB whose capture is that state again. Under LRU
// the nonzero stamps are the ranks 1..k, each once, and the clock is k;
// under every other policy there are no stamps and no clock, and only
// round-robin has a cursor.
func (s TLBState) checkRecency() error {
	if s.Policy != "lru" {
		for i, sl := range s.Slots {
			if sl.LastUse != 0 {
				return fmt.Errorf("%w: machine: TLB slot %d stamped %d under policy %q", snapshot.ErrCorrupt, i, sl.LastUse, s.Policy)
			}
		}
		if s.Stamp != 0 || s.Next != 0 && s.Policy != "roundrobin" {
			return fmt.Errorf("%w: machine: TLB clock %d, cursor %d under policy %q", snapshot.ErrCorrupt, s.Stamp, s.Next, s.Policy)
		}
		return nil
	}
	if s.Next != 0 {
		return fmt.Errorf("%w: machine: LRU TLB with a round-robin cursor %d", snapshot.ErrCorrupt, s.Next)
	}
	// k distinct ranks are 1..k exactly when the highest is k.
	seen := make([]bool, len(s.Slots)+1) // by rank
	k, top := uint64(0), uint64(0)
	for i, sl := range s.Slots {
		switch r := sl.LastUse; {
		case r == 0:
		case r >= uint64(len(seen)):
			return fmt.Errorf("%w: machine: TLB slot %d ranked %d of %d slots", snapshot.ErrCorrupt, i, r, len(s.Slots))
		case seen[r]:
			return fmt.Errorf("%w: machine: TLB slot %d repeats rank %d", snapshot.ErrCorrupt, i, r)
		default:
			seen[r] = true
			k, top = k+1, max(top, r)
		}
	}
	if top != k {
		return fmt.Errorf("%w: machine: TLB ranks %d stamped slots up to %d", snapshot.ErrCorrupt, k, top)
	}
	if s.Stamp != k {
		return fmt.Errorf("%w: machine: TLB clock %d, highest rank %d", snapshot.ErrCorrupt, s.Stamp, k)
	}
	return nil
}

// checkRestorable verifies geometry and policy compatibility.
func (t *TLB) checkRestorable(s TLBState) error {
	if len(s.Slots) != len(t.slots) {
		return fmt.Errorf("machine: restore: TLB has %d slots, capture has %d", len(t.slots), len(s.Slots))
	}
	if s.Policy != t.policy.Name() {
		return fmt.Errorf("machine: restore: TLB policy %q into machine with %q", s.Policy, t.policy.Name())
	}
	if s.Policy == "random" {
		return fmt.Errorf("machine: restore: random TLB replacement is chip-private and not restorable")
	}
	if s.Pending < -1 || s.Pending >= len(t.slots) || s.Next < 0 {
		return fmt.Errorf("machine: restore: TLB cursor out of range (pending %d, next %d, %d slots)", s.Pending, s.Next, len(t.slots))
	}
	// Canonical ranks also keep every slot at or below the clock, which is
	// how the run memo finds the slots a call touched.
	return s.checkRecency()
}

// restoreState overwrites the TLB from a capture (pre-validated).
func (t *TLB) restoreState(s TLBState) {
	for i := range t.slots {
		t.slots[i] = s.Slots[i].Entry
	}
	t.pending = s.Pending
	t.Stats = s.Stats
	t.gen++
	switch p := t.policy.(type) {
	case *LRUPolicy:
		p.stamp = s.Stamp
		for i := range p.last {
			p.last[i] = s.Slots[i].LastUse
		}
	case *RoundRobinPolicy:
		p.next = s.Next
	}
}

// Code writes the capture to c or, reading, decodes one into s. The RAM
// encoding is sparse — only pages containing a nonzero byte are written:
// the guest kernel's footprint is a small fraction of physical RAM, and
// the blob's length is what the simulated link charges for (an
// idle-page-free image is what a real state-transfer implementation
// ships too; VMware FT and Remus both elide untouched pages). It is also
// canonical — RAM size, page count, then (index, length-prefixed data)
// per page of s.Pages — so a RAM image has exactly one encoding and a
// decode accepts nothing else, which is what makes "decode, re-encode,
// compare bytes" a sound verification. Decoded RAM pages alias the
// reader's blob, and every allocation is bounded by the bytes that
// remain, never by a count the blob claims.
func (s *State) Code(c *snapshot.Codec) {
	c.U32(&s.MemBytes)
	for i := range s.Regs {
		c.U32(&s.Regs[i])
	}
	c.U32(&s.PC)
	c.U32(&s.PSW)
	for i := range s.CRs {
		c.U32(&s.CRs[i])
	}
	c.Bool(&s.Halted)
	c.U64(&s.Cycles)
	st := &s.Stats
	for _, p := range [...]*uint64{&st.Instructions, &st.Privileged, &st.Environment, &st.Loads, &st.Stores, &st.Branches, &st.Traps} {
		c.U64(p)
	}
	s.codeRAM(c)
	s.TLB.code(c)
}

// ramEntryMin is the least a page entry occupies: index + data length.
const ramEntryMin = 8

// codeRAM codes RAM as its canonical sparse page set. Read, it accepts
// only that set for a RAM of s.MemBytes: strictly ascending in-range
// indices, full pages except for the tail of an unaligned RAM, and no
// all-zero page. Nothing RAM-sized is allocated.
func (s *State) codeRAM(c *snapshot.Codec) {
	size, n := s.MemBytes, len(s.Pages)
	c.U32(&size)
	c.Count(&n, ramEntryMin)
	npages := (uint64(s.MemBytes) + isa.PageSize - 1) >> isa.PageShift
	if c.Reading() {
		if size != s.MemBytes || uint64(n) > npages {
			c.Fail()
			return
		}
		s.Pages = make([]Page, n)
	}
	for i := range s.Pages {
		pg := &s.Pages[i]
		c.U32(&pg.Index)
		c.View(&pg.Data)
		if !c.Reading() {
			continue
		}
		idx := uint64(pg.Index)
		if idx >= npages || (i > 0 && pg.Index <= s.Pages[i-1].Index) ||
			uint64(len(pg.Data)) != min(uint64(s.MemBytes)-idx<<isa.PageShift, isa.PageSize) ||
			bytes.Equal(pg.Data, zeroFrame.data[:len(pg.Data)]) {
			c.Fail()
			return
		}
	}
}

// tlbSlotBytes is the encoded size of one TLB slot.
const tlbSlotBytes = 4 + 4 + 4 + 1 + 8

// code codes the TLB capture; read, it refuses recency no capture writes
// (checkRecency).
func (s *TLBState) code(c *snapshot.Codec) {
	c.String(&s.Policy)
	c.U64(&s.Stamp)
	c.Int(&s.Next)
	c.Int(&s.Pending)
	st := &s.Stats
	for _, p := range [...]*uint64{&st.Hits, &st.Misses, &st.Inserts, &st.Evicts, &st.Purges} {
		c.U64(p)
	}
	snapshot.Slice(c, &s.Slots, tlbSlotBytes)
	for i := range s.Slots {
		sl := &s.Slots[i]
		c.U32(&sl.Entry.VPN)
		c.U32(&sl.Entry.PPN)
		c.U32(&sl.Entry.Flags)
		c.Bool(&sl.Entry.Valid)
		c.U64(&sl.LastUse)
	}
	if c.Reading() && s.checkRecency() != nil {
		c.Fail()
	}
}
