package netsim

// Free-listed multi-record frames. A coalesced protocol message — one
// header plus a batch of records — is expensive to allocate per epoch on
// the replication hot path, so frames recycle through a pool: the sender
// takes one ref per receiver, each receiver releases after consuming,
// and the last release clears the frame and returns it to the free list.
//
// The pool is owned by one simulation kernel and is not safe for
// concurrent use (the sim is single-threaded by construction). A frame
// sent on a link that drops it (loss injection, disconnection) is never
// released by a receiver; its memory is simply reclaimed by the GC and
// the pool self-heals by allocating on the next Get — leak-free at the
// cost of one allocation per dropped frame.

// FramePool recycles frames with header type H and record type R.
type FramePool[H any, R any] struct {
	free []*Frame[H, R]
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
	return &Frame[H, R]{pool: p}
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
	var zh H
	f.Head = zh
	var zr R
	for i := range f.Recs {
		f.Recs[i] = zr
	}
	f.Recs = f.Recs[:0]
	f.Size = 0
	if f.pool != nil {
		f.pool.free = append(f.pool.free, f)
	}
}

// Refs returns the live reference count (tests).
func (f *Frame[H, R]) Refs() int32 { return f.refs }
