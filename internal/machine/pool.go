package machine

import "repro/internal/free"

// Machine construction dominates short-lived simulation sessions: every
// hftbench figure point (and every benchmark iteration) builds a fresh
// cluster, and most of that cost is allocating — and then garbage
// collecting — the bulk per-machine buffers: faulted RAM frames and the
// decoded-page cache. An Arena owns them across machine lifetimes: a
// session's cluster builds its machines over its arena (NewIn), and
// Release, at the session's Close, hands every buffer back to it for
// the next cluster the arena serves. A recycled buffer is re-zeroed
// (tables), overwritten whole (frames) or metadata-reset (decoded pages)
// before reuse, so a machine built from recycled buffers is
// indistinguishable from one built fresh: recycling changes allocation
// behaviour only, never execution. A machine built outside a session
// (New: a unit test, a bench probe) gets a private arena of its own,
// which starts empty, so it allocates plainly.

// Arena owns the bulk buffers of the machines built over it. It has one
// owner at a time and no lock: machines sharing an arena must not run
// concurrently (a cluster's machines all run on its driving goroutine).
type Arena struct {
	pageTables  free.List[[]*decodedPage]                // per-machine page tables
	pages       free.List[*decodedPage]                  // decoded-page images
	traces      free.List[*trace]                        // superblock records (see trace.go)
	frameTables free.List[[]*ramPage]                    // per-machine frame tables
	owned       free.List[[]uint64]                      // per-machine ownership bitmaps
	frames      free.List[*ramPage]                      // COW-faulted private frames
	decode      free.List[*[decodeCacheSize]decodeEntry] // word-decode memos
}

// decodeCache returns a word-decode memo. A recycled one is reused as
// is: an entry maps an instruction word to its decode, a pure function,
// so another machine's entries are as valid here as there.
func (a *Arena) decodeCache() *[decodeCacheSize]decodeEntry {
	if c, ok := a.decode.Get(); ok {
		return c
	}
	return new([decodeCacheSize]decodeEntry)
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

// frameTable returns a nil-filled frame table with n entries.
func (a *Arena) frameTable(n int) []*ramPage {
	if s, ok := a.frameTables.Get(); ok && cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]*ramPage, n)
}

// ownedBits returns a zeroed ownership bitmap with n words.
func (a *Arena) ownedBits(n int) []uint64 {
	if s, ok := a.owned.Get(); ok && cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]uint64, n)
}

// frame returns a frame for a COW fault. No zeroing: the fault copies
// the full source frame over it.
func (a *Arena) frame() *ramPage {
	if fr, ok := a.frames.Get(); ok {
		return fr
	}
	return new(ramPage)
}

// pageTable returns a nil-filled page table with n entries.
func (a *Arena) pageTable(n int) []*decodedPage {
	if s, ok := a.pageTables.Get(); ok && cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]*decodedPage, n)
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

// reclaim takes back every bulk buffer of m, a machine built over a.
func (a *Arena) reclaim(m *Machine) {
	if m.decodeCache != nil {
		a.decode.Put(m.decodeCache)
	}
	if m.frames != nil {
		// Recycle only the frames faulted private; shared frames belong
		// to the (immutable, interned) base image.
		for i, fr := range m.frames {
			if m.ownedPage(uint32(i)) {
				a.frames.Put(fr)
			}
		}
		a.frameTables.Put(m.frames)
	}
	if m.owned != nil {
		a.owned.Put(m.owned)
	}
	if m.pages != nil {
		for i, pg := range m.pages {
			if pg != nil {
				m.pages[i] = nil
				a.pages.Put(pg)
			}
		}
		a.pageTables.Put(m.pages)
	}
}

// Release hands the machine's bulk buffers back to its arena and drops
// the machine's references to them; a second call does nothing. The
// machine must not run afterwards; the session engine calls it on
// teardown, once its kernel is down, so the next cluster its arena
// serves builds from recycled buffers instead of cold allocations.
func (m *Machine) Release() {
	if m.arena == nil {
		return
	}
	m.memo.drop()
	m.arena.reclaim(m)
	m.arena, m.decodeCache, m.frames, m.owned, m.pages, m.img = nil, nil, nil, nil, nil, nil
}
