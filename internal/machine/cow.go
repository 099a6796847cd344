package machine

// Copy-on-write guest RAM. A fleet of machines booting the same kernel
// image should pay for that image once, not once per machine: RAM is
// page-granular, every page frame is a pointer, and every machine
// starts with every frame pointing into a shared, immutable BaseImage
// (the all-zero one unless Config.Image names another). The first store
// that CHANGES a page's contents faults the page — copies the frame
// private and flips its ownership bit — after which the page is written
// in place. A store that writes back the bytes already present is a
// no-op: page contents are unchanged, so nothing observable (decoded
// pages, traces, digests) can depend on it. That rule is what lets the
// boot loader replay the kernel image over a shared base without
// faulting a single page.
//
// Frames are interned by content across all base images (64-bit FNV-1a
// hash, full compare on collision), so a thousand shards booting the
// same kernel share one copy of each page — and all-zero data pages
// collapse to a single frame fleet-wide. Each shared frame also carries
// a lazily built, immutable decoded image of its instruction slots (the
// shared decoded-page cache): when a machine first executes an unfaulted
// shared page, its private decodedPage is seeded by copying the shared
// decode instead of re-decoding word by word. The copy is semantically
// identical to what lazy fill() would build — same insts, words, priv
// and resync bits — except that every decodable slot is valid up front;
// extra valid bits only skip fill calls that would have produced the
// same entries. Superblock traces stay per-machine: they are built in
// the machine's own decodedPage and never shared.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/isa"
)

// ramPage is one page-sized frame of guest RAM.
type ramPage = [isa.PageSize]byte

// sharedFrame is one immutable, interned page of a BaseImage plus its
// lazily built shared decoded image. The data never changes after
// interning; machines that diverge copy the frame private first.
type sharedFrame struct {
	data ramPage
	// zero records, at intern time, that data is all zero — the state
	// path's zero test for shared frames, paid once per distinct page
	// instead of once per capture.
	zero bool
	once sync.Once
	dec  *sharedDecode
}

// sharedDecode is the immutable decoded image of a shared frame: the
// subset of decodedPage that is a pure function of page contents.
type sharedDecode struct {
	insts  [instsPerPage]isa.Inst
	words  [instsPerPage]uint32
	valid  [instsPerPage / 64]uint64
	priv   [instsPerPage / 64]uint64
	resync [instsPerPage / 64]uint64
}

// decoded returns the frame's shared decode, building it on first use.
// The build mirrors fill() exactly: slots that do not decode stay
// invalid (they trap out of the fast loop on fetch), priv marks
// privileged-class instructions, resync marks the instructions that
// can invalidate hoisted fast-loop state.
func (f *sharedFrame) decoded() *sharedDecode {
	f.once.Do(func() {
		d := &sharedDecode{}
		for slot := 0; slot < instsPerPage; slot++ {
			w := binary.LittleEndian.Uint32(f.data[slot*4:])
			in, err := isa.Decode(w)
			if err != nil {
				continue
			}
			bit := uint64(1) << (slot & 63)
			d.insts[slot] = in
			d.words[slot] = w
			if isa.Privileged(in.Op) {
				d.priv[slot>>6] |= bit
			}
			switch in.Op {
			case isa.OpMTCTL, isa.OpRFI, isa.OpITLBI, isa.OpPTLB:
				d.resync[slot>>6] |= bit
			}
			d.valid[slot>>6] |= bit
		}
		f.dec = d
	})
	return f.dec
}

// copyInto seeds a fresh per-machine decodedPage from the shared
// decode. Trace state (traceAt/cover/traces/gen) is per-machine and
// already reset by Arena.page.
func (d *sharedDecode) copyInto(pg *decodedPage) {
	pg.insts = d.insts
	pg.words = d.words
	pg.valid = d.valid
	pg.priv = d.priv
	pg.resync = d.resync
}

// BaseImage is an immutable guest RAM image shared read-only by any
// number of machines (Config.Image). Size need not be page-aligned;
// the last frame is zero-padded.
type BaseImage struct {
	size   uint32
	frames []*sharedFrame
}

// Size returns the image size in bytes (the RAM size of machines built
// over it).
func (img *BaseImage) Size() uint32 { return img.size }

// frameIntern deduplicates frames by content across all base images.
var frameIntern struct {
	sync.Mutex
	byHash map[uint64][]*sharedFrame
}

// internFrame returns the canonical shared frame for the given page
// contents.
func internFrame(page *ramPage) *sharedFrame {
	h := fnv64a(page[:])
	frameIntern.Lock()
	defer frameIntern.Unlock()
	if frameIntern.byHash == nil {
		frameIntern.byHash = make(map[uint64][]*sharedFrame)
	}
	for _, f := range frameIntern.byHash[h] {
		if f.data == *page {
			return f
		}
	}
	f := &sharedFrame{data: *page, zero: *page == ramPage{}}
	frameIntern.byHash[h] = append(frameIntern.byHash[h], f)
	return f
}

// zeroFrame is the interned all-zero page: every page of a base image
// outside its program, fleet-wide.
var zeroFrame = internFrame(new(ramPage))

// fnv64a is the 64-bit FNV-1a hash (content key for frame and image
// interning; only equality after a full compare is ever trusted).
func fnv64a(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// imageIntern memoises base images by what determines their content —
// the program's origin and words plus the RAM size — so every session
// booting the same kernel at the same RAM size resolves to one
// BaseImage (and one shared decode) process-wide without ever building
// a RAM-sized buffer to find it. Images live for the process: the set
// of distinct kernel images is small and shared by design.
var imageIntern struct {
	sync.Mutex
	byHash map[uint64][]*programImage
}

// programImage is one memo entry: the key (with a private copy of the
// words, a few KB) and the image built from it.
type programImage struct {
	origin, size uint32
	words        []uint32
	img          *BaseImage
}

// ProgramImage returns the canonical BaseImage for a RAM of size bytes
// that is zero except for words stored little-endian at origin — the
// image LoadProgram would produce in a fresh machine. A first-seen
// image is built page by page: pages the program covers are interned
// by content, every other page maps the one zero frame. The program
// must fit in size bytes.
func ProgramImage(origin uint32, words []uint32, size uint32) *BaseImage {
	end := uint64(origin) + 4*uint64(len(words))
	if end > uint64(size) {
		panic(fmt.Sprintf("machine: program [%#x, %#x) exceeds a %d-byte image", origin, end, size))
	}
	// The key hashes a word at a time: it only has to spread images,
	// equality is the full compare below.
	h := uint64(fnvOffset)
	for _, v := range [...]uint32{origin, size} {
		h = (h ^ uint64(v)) * fnvPrime
	}
	for _, w := range words {
		h = (h ^ uint64(w)) * fnvPrime
	}
	imageIntern.Lock()
	defer imageIntern.Unlock()
	if imageIntern.byHash == nil {
		imageIntern.byHash = make(map[uint64][]*programImage)
	}
	for _, e := range imageIntern.byHash[h] {
		if e.origin == origin && e.size == size && slices.Equal(e.words, words) {
			return e.img
		}
	}
	npages := (int(size) + isa.PageSize - 1) >> isa.PageShift
	img := &BaseImage{size: size, frames: make([]*sharedFrame, npages)}
	for i := range img.frames {
		base := uint64(i) << isa.PageShift
		lo, hi := max(base, uint64(origin)), min(base+isa.PageSize, end)
		if lo >= hi {
			img.frames[i] = zeroFrame
			continue
		}
		var page ramPage
		for a := lo; a < hi; a++ {
			off := a - uint64(origin)
			page[a-base] = byte(words[off>>2] >> (8 * (off & 3)))
		}
		img.frames[i] = internFrame(&page)
	}
	imageIntern.byHash[h] = append(imageIntern.byHash[h],
		&programImage{origin: origin, size: size, words: slices.Clone(words), img: img})
	return img
}

// ownedPage reports whether physical page idx is private to this
// machine (writable in place).
func (m *Machine) ownedPage(idx uint32) bool {
	return m.owned[idx>>6]&(1<<(idx&63)) != 0
}

// faultPage makes page idx private (the copy-on-write fault): the
// shared frame's contents are copied into a fresh frame and the
// ownership bit is set. Idempotent on pages already owned.
func (m *Machine) faultPage(idx uint32) *ramPage {
	fr := m.frames[idx]
	if m.ownedPage(idx) {
		return fr
	}
	priv := m.arena.frame()
	*priv = *fr
	m.frames[idx] = priv
	m.owned[idx>>6] |= 1 << (idx & 63)
	return priv
}

// SharedPages returns the number of RAM pages still backed by the
// shared base image. Tests and fleet metrics use it to verify sharing.
func (m *Machine) SharedPages() int {
	n := 0
	for i := range m.frames {
		if !m.ownedPage(uint32(i)) {
			n++
		}
	}
	return n
}
