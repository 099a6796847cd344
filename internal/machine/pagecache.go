package machine

import (
	"encoding/binary"

	"repro/internal/isa"
)

// The translation cache: each physical page of RAM is decoded at most
// once into an array of isa.Inst values, and the batched executor (Run)
// dispatches straight from the decoded array. This removes the
// per-instruction word fetch, decode-cache hash probe and tag compare
// from the fast loop.
//
// The cache is keyed by PHYSICAL page and derived purely from RAM
// contents, so it carries no translation state: TLB changes (ITLBI,
// PTLB) never require invalidation here — Run already re-translates the
// execution page after any such instruction — and two virtual pages
// mapping the same frame share one decoded image. The only events that
// can stale an entry are writes to RAM, and every such write funnels
// through storePhys or WriteBytes, which invalidate the covered slots.
// Pages that overlap the MMIO window or the end of RAM never enter the
// cache (Run's plainRAMPage gate), so device-register traffic needs no
// hook. Differential tests in pagecache_test.go assert bit-identical
// behaviour against Step across self-modifying code, cross-page stores
// into cached pages, and mid-batch TLB rewrites.

// instsPerPage is the number of instruction slots in one page.
const instsPerPage = isa.PageSize / 4

// decodedPage is the decoded image of one physical page. Slots fill
// lazily as instructions are first executed, so a store-heavy data page
// that is briefly executed never pays a whole-page decode.
type decodedPage struct {
	insts [instsPerPage]isa.Inst
	words [instsPerPage]uint32
	// valid marks slots whose insts/words entries are current.
	valid [instsPerPage / 64]uint64
	// priv marks valid slots holding privileged-class instructions, so
	// the fast loop's privilege check is a bit test instead of a call.
	priv [instsPerPage / 64]uint64
	// resync marks valid slots holding instructions that can invalidate
	// the fast loop's hoisted state (MTCTL, RFI, ITLBI, PTLB), so the
	// post-execute class check is a bit test instead of a switch.
	resync [instsPerPage / 64]uint64

	// Superblock traces over this page (see trace.go). traceAt maps an
	// entry slot to its trace index+1 (0 unknown, traceIneligible for
	// slots that cannot start a trace); cover marks every slot inside
	// any trace, so stores can tell trace-covering writes from plain
	// data writes on mixed code/data pages without dropping traces on
	// every store; gen increments whenever traces drop, so a running
	// trace notices its own page being rewritten.
	traceAt [instsPerPage]uint16
	traces  []*trace
	cover   [instsPerPage / 64]uint64
	gen     uint32
}

// execPage returns (allocating on first use) the decoded image of the
// plain-RAM page starting at physical address base. A page still
// backed by the shared base image is seeded from the image's shared
// decode — identical kernel pages decode once fleet-wide — instead of
// filling slot by slot; once the page COW-faults, ordinary store
// invalidation and lazy fill keep the (now private) decoded image
// coherent.
func (m *Machine) execPage(base uint32) *decodedPage {
	idx := base >> isa.PageShift
	pg := m.pages[idx]
	if pg == nil {
		pg = m.arena.page()
		if !m.ownedPage(idx) {
			m.img.frames[idx].decoded().copyInto(pg)
		}
		m.pages[idx] = pg
	}
	return pg
}

// fill decodes the word at page offset slot*4 into the cache and
// returns it. ok=false means the word does not decode (illegal
// instruction); illegal words are not cached — they trap out of the
// fast loop anyway.
func (m *Machine) fill(pg *decodedPage, base, slot uint32) (isa.Inst, uint32, bool) {
	w := binary.LittleEndian.Uint32(m.frames[base>>isa.PageShift][slot*4:])
	in, ok := m.decode(w)
	if !ok {
		return isa.Inst{}, w, false
	}
	pg.insts[slot] = in
	pg.words[slot] = w
	bit := uint64(1) << (slot & 63)
	if isa.Privileged(in.Op) {
		pg.priv[slot>>6] |= bit
	} else {
		pg.priv[slot>>6] &^= bit
	}
	switch in.Op {
	case isa.OpMTCTL, isa.OpRFI, isa.OpITLBI, isa.OpPTLB:
		pg.resync[slot>>6] |= bit
	default:
		pg.resync[slot>>6] &^= bit
	}
	pg.valid[slot>>6] |= bit
	return in, w, true
}

// invalidateWord drops the cached slot covering the word at physical
// address pa.
func (m *Machine) invalidateWord(pa uint32) {
	if pg := m.pages[pa>>isa.PageShift]; pg != nil {
		slot := (pa & isa.PageMask) >> 2
		bit := uint64(1) << (slot & 63)
		pg.valid[slot>>6] &^= bit
		if pg.cover[slot>>6]&bit != 0 {
			// The word is inside a superblock trace: drop the page's
			// traces (and bump gen for any trace mid-execution).
			pg.dropTraces()
		}
		// Any entry mark for this slot is stale now; rebuild on demand.
		pg.traceAt[slot] = 0
	}
}

// decodedAt reports whether invalidateWord would find anything to drop
// for a store to the word holding va (the page offset is all it reads):
// a decoded slot, a trace covering it, or an entry mark. The trace
// executor asks before it stores through its data window.
func (pg *decodedPage) decodedAt(va uint32) bool {
	slot, word := va>>2&(instsPerPage-1), va>>8&(instsPerPage/64-1)
	return (pg.valid[word]|pg.cover[word])>>(slot&63)&1 != 0 || pg.traceAt[slot] != 0
}

// invalidateStore drops the cached slot(s) covered by a store of size
// 1, 2 or 4 bytes at pa. Guest stores are alignment-checked and touch
// one word, but the physical-store path (StorePhys32, loaders, tests)
// accepts any address, where an unaligned store spans two words — and
// possibly two pages.
func (m *Machine) invalidateStore(pa uint32, size int) {
	m.invalidateWord(pa)
	if pa&3+uint32(size) > 4 {
		m.invalidateWord(pa + uint32(size) - 1)
	}
}
