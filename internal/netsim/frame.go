package netsim

// Free-listed multi-record frames. A coalesced protocol message — one
// header plus a batch of records — is expensive to allocate per epoch on
// the replication hot path, so frames recycle through a pool: the sender
// takes one ref per receiver, each receiver releases after consuming,
// and the last release clears the frame and returns it to the free list.
//
// The pool owns every frame it has made; a reference is only lent. It
// is owned by one simulation kernel at a time and is not safe for
// concurrent use (the sim is single-threaded by construction). A copy
// that never reaches a receiver that releases it — dropped by a link
// that went down after the sender counted its receivers, or left unread
// in the inbox of a replica that stopped — keeps its frame out of the
// free list until the pool's owner reclaims every frame at teardown
// (Reclaim), once no reference can be used again.

// FramePool recycles frames with header type H and record type R. The
// zero value is empty.
type FramePool[H any, R any] struct {
	free []*Frame[H, R]
	made []*Frame[H, R] // every frame the pool has handed out, for Reclaim
}

// Frame is one pooled multi-record message: an inline header and a batch
// of records, sized for the link timing model.
type Frame[H any, R any] struct {
	pool *FramePool[H, R]
	refs int32

	// Head is the frame header (protocol-defined).
	Head H
	// Recs is the record batch; the backing array is reused across
	// pool cycles, so steady-state appends allocate nothing.
	Recs []R
	// Size is the wire size in bytes for the link timing model.
	Size int
}

// Get returns a cleared frame with zero references (call Retain before
// fanning it out).
func (p *FramePool[H, R]) Get() *Frame[H, R] {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return f
	}
	f := &Frame[H, R]{pool: p}
	p.made = append(p.made, f)
	return f
}

// Outstanding returns how many of the pool's frames are out of its free
// list: held by a reference, or lost with one.
func (p *FramePool[H, R]) Outstanding() int { return len(p.made) - len(p.free) }

// Reclaim returns every frame the pool has made to its free list,
// cleared, whatever references were still counted on it. Call only on
// teardown, once nothing that holds a reference can run again.
func (p *FramePool[H, R]) Reclaim() {
	for _, f := range p.made {
		f.clear()
	}
	p.free = append(p.free[:0], p.made...)
}

// Retain adds n references: one per party that will call Release.
func (f *Frame[H, R]) Retain(n int32) { f.refs += n }

// Release drops one reference. The last release clears the header and
// records (dropping payload pointers so consumed data is not pinned) and
// returns the frame to its pool.
func (f *Frame[H, R]) Release() {
	f.refs--
	if f.refs > 0 {
		return
	}
	f.clear()
	f.pool.free = append(f.pool.free, f)
}

// clear empties the frame for its next Get.
func (f *Frame[H, R]) clear() {
	var zh H
	f.Head = zh
	clear(f.Recs)
	f.Recs = f.Recs[:0]
	f.Size = 0
	f.refs = 0
}

// Refs returns the live reference count (tests).
func (f *Frame[H, R]) Refs() int32 { return f.refs }
