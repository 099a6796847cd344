package machine

import "sync"

// Machine construction dominates short-lived simulation sessions: every
// hftbench figure point (and every benchmark iteration) builds a fresh
// cluster, and most of that cost is allocating — and then garbage
// collecting — the bulk per-machine buffers: faulted RAM frames and the
// decoded-page cache. The pools below recycle both across machine
// lifetimes. A recycled buffer is re-zeroed (tables), overwritten whole
// (frames) or metadata-reset (decoded pages) before reuse, so a machine
// built from recycled buffers is indistinguishable from one built
// fresh: recycling changes allocation behaviour only, never execution.
// The pools are package-global and safe for concurrent sessions
// (hftbench -parallel).

var (
	pagesPool  sync.Pool // *[]*decodedPage: per-machine page tables
	pagePool   sync.Pool // *decodedPage: decoded-page images
	tracePool  sync.Pool // *trace: superblock records (see trace.go)
	framesPool sync.Pool // *[]*ramPage: per-machine frame tables
	ownedPool  sync.Pool // *[]uint64: per-machine ownership bitmaps
	framePool  sync.Pool // *ramPage: COW-faulted private frames
	decodePool sync.Pool // *[decodeCacheSize]decodeEntry: word-decode memos
)

// grabDecodeCache returns a word-decode memo. A recycled one is reused
// as is: an entry maps an instruction word to its decode, a pure
// function, so another machine's entries are as valid here as there.
func grabDecodeCache() *[decodeCacheSize]decodeEntry {
	if c, _ := decodePool.Get().(*[decodeCacheSize]decodeEntry); c != nil {
		return c
	}
	return new([decodeCacheSize]decodeEntry)
}

// grabTrace returns an empty trace record, reusing a recycled one's code
// and ops capacity when available.
func grabTrace() *trace {
	if tr, _ := tracePool.Get().(*trace); tr != nil {
		tr.code, tr.ops = tr.code[:0], tr.ops[:0]
		return tr
	}
	return &trace{code: make([]uint64, 0, 16), ops: make([]traceOp, 0, 16)}
}

// putTraces recycles dropped trace records.
func putTraces(ts []*trace) {
	for _, t := range ts {
		tracePool.Put(t)
	}
}

// grabFrames returns a nil-filled frame table with n entries.
func grabFrames(n int) []*ramPage {
	if p, _ := framesPool.Get().(*[]*ramPage); p != nil && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]*ramPage, n)
}

// grabOwned returns a zeroed ownership bitmap with n words.
func grabOwned(n int) []uint64 {
	if p, _ := ownedPool.Get().(*[]uint64); p != nil && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]uint64, n)
}

// grabFrame returns a frame for a COW fault. No zeroing: the fault
// copies the full source frame over it.
func grabFrame() *ramPage {
	if fr, _ := framePool.Get().(*ramPage); fr != nil {
		return fr
	}
	return new(ramPage)
}

// grabPages returns a nil-filled page table with n entries.
func grabPages(n int) []*decodedPage {
	if p, _ := pagesPool.Get().(*[]*decodedPage); p != nil && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]*decodedPage, n)
}

// grabPage returns a decoded page ready for first use. Only the
// validity metadata of a recycled page needs resetting: insts/words are
// gated by the valid bitmap and re-decode on demand, and priv/resync
// bits are rewritten by fill alongside each valid bit.
func grabPage() *decodedPage {
	pg, _ := pagePool.Get().(*decodedPage)
	if pg == nil {
		return &decodedPage{}
	}
	pg.valid = [instsPerPage / 64]uint64{}
	clear(pg.traceAt[:])
	pg.cover = [instsPerPage / 64]uint64{}
	putTraces(pg.traces)
	pg.traces = pg.traces[:0]
	pg.gen = 0
	return pg
}

// Release returns the machine's bulk buffers to the pools and drops the
// machine's references to them. The machine must not run afterwards;
// callers that own a machine's whole lifetime (the session engine, on
// teardown) call it so the next session's machines build from recycled
// buffers instead of cold allocations.
func (m *Machine) Release() {
	m.memo.drop()
	if m.decodeCache != nil {
		decodePool.Put(m.decodeCache)
		m.decodeCache = nil
	}
	if m.frames != nil {
		// Recycle only the frames faulted private; shared frames belong
		// to the (immutable, interned) base image.
		for i, fr := range m.frames {
			if m.ownedPage(uint32(i)) {
				framePool.Put(fr)
			}
		}
		frames := m.frames
		m.frames = nil
		framesPool.Put(&frames)
	}
	m.img = nil
	if m.owned != nil {
		owned := m.owned
		m.owned = nil
		ownedPool.Put(&owned)
	}
	if m.pages != nil {
		pages := m.pages
		m.pages = nil
		for i, pg := range pages {
			if pg != nil {
				pages[i] = nil
				pagePool.Put(pg)
			}
		}
		pagesPool.Put(&pages)
	}
}
