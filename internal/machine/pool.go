package machine

import "repro/internal/free"

// Machine construction dominates short-lived simulation sessions: every
// hftbench figure point (and every benchmark iteration) builds a fresh
// cluster, and most of that cost is allocating — and then garbage
// collecting — the machines and their bulk buffers: faulted RAM frames
// and the decoded-page cache. An Arena owns them across machine
// lifetimes: a session's cluster builds its machines over its arena
// (NewIn), and Release, at the session's Close, hands each machine back
// to it for the next cluster the arena serves. A recycled machine is
// rebuilt field by field and its buffers re-zeroed (tables), overwritten
// whole (frames) or metadata-reset (decoded pages) before reuse, so a
// machine built from recycled parts is
// indistinguishable from one built fresh: recycling changes allocation
// behaviour only, never execution. A machine built outside a session
// (New: a unit test, a bench probe) gets a private arena of its own,
// which starts empty, so it allocates plainly.

// Arena owns the machines built over it and their bulk buffers. A
// released machine waits on the arena whole — its TLB and replacement
// policy, its bus multiplexer, its frame and page tables and ownership
// bitmap — and NewIn rebuilds it in place; the decoded pages, traces and
// COW frames, whose number varies from machine to machine, wait on lists
// of their own, and every machine over the arena shares one word-decode
// memo. It has one owner at a time and no lock: machines sharing an arena
// must not run concurrently (a cluster's machines all run on its driving
// goroutine).
type Arena struct {
	machines free.List[*Machine]     // released machines, buffers attached
	pages    free.List[*decodedPage] // decoded-page images
	traces   free.List[*trace]       // superblock records (see trace.go)
	frames   free.List[*ramPage]     // COW-faulted private frames
	decode   *[decodeCacheSize]decodeEntry
}

// decodeCache returns the word-decode memo of every machine over a,
// made on first use. Sharing it is sound: an entry maps an instruction
// word to its decode, a pure function, so one machine's entries are as
// valid for another, and a collision only re-decodes.
func (a *Arena) decodeCache() *[decodeCacheSize]decodeEntry {
	if a.decode == nil {
		a.decode = new([decodeCacheSize]decodeEntry)
	}
	return a.decode
}

// trace returns an empty trace record, reusing a recycled one's code and
// ops capacity when available.
func (a *Arena) trace() *trace {
	if tr, ok := a.traces.Get(); ok {
		tr.code, tr.ops = tr.code[:0], tr.ops[:0]
		return tr
	}
	return &trace{code: make([]uint64, 0, 16), ops: make([]traceOp, 0, 16)}
}

// frame returns a frame for a COW fault. No zeroing: the fault copies
// the full source frame over it.
func (a *Arena) frame() *ramPage {
	if fr, ok := a.frames.Get(); ok {
		return fr
	}
	return new(ramPage)
}

// page returns a decoded page ready for first use. Only the validity
// metadata of a recycled page needs resetting: insts/words are gated by
// the valid bitmap and re-decode on demand, and priv/resync bits are
// rewritten by fill alongside each valid bit.
func (a *Arena) page() *decodedPage {
	pg, ok := a.pages.Get()
	if !ok {
		return &decodedPage{}
	}
	pg.valid = [instsPerPage / 64]uint64{}
	clear(pg.traceAt[:])
	pg.cover = [instsPerPage / 64]uint64{}
	for _, tr := range pg.traces {
		a.traces.Put(tr)
	}
	clear(pg.traces)
	pg.traces = pg.traces[:0]
	pg.gen = 0
	return pg
}

// reclaim takes back the decoded pages and private frames of m, a
// machine built over a.
func (a *Arena) reclaim(m *Machine) {
	// Recycle only the frames faulted private; shared frames belong to
	// the (immutable, interned) base image.
	for i, fr := range m.frames {
		if m.ownedPage(uint32(i)) {
			a.frames.Put(fr)
		}
	}
	for i, pg := range m.pages {
		if pg != nil {
			m.pages[i] = nil
			a.pages.Put(pg)
		}
	}
}

// Release hands the machine, with its buffers, back to its arena for the
// next NewIn; a second call before that does nothing. The machine must
// not be used afterwards; the session engine calls it on teardown, once
// its kernel is down, so the next cluster its arena serves builds from a
// recycled machine instead of cold allocations.
func (m *Machine) Release() {
	a := m.arena
	if a == nil {
		return
	}
	a.reclaim(m)
	clear(m.mux.ranges) // the devices stay with their cluster
	*m = Machine{TLB: m.TLB, mux: BusMux{ranges: m.mux.ranges[:0]},
		frames: m.frames, owned: m.owned, pages: m.pages}
	a.machines.Put(m)
}

// zeroed returns s resized to n zero elements, reusing its storage when
// it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
