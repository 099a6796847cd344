// Package free holds the two free lists that recycle buffers and structs
// whose lifetime is known. A List has one owner — a cluster's arena,
// driven by one goroutine at a time — so a Get or a Put is a plain slice
// pop or push, with no lock, no atomic and no type assertion. A Shelf is
// the one process-wide place idle values wait between owners: it takes
// its lock only when a value is borrowed or returned, and a garbage
// collection never empties it. A slice of pointers emptied to its zero
// length keeps its elements past that length, and Next hands them out
// again: a table that is refilled in every cluster recycles its records
// with its storage.
package free

import (
	"slices"
	"sync"
)

// Next appends a slot to s and returns the grown slice and the record in
// the slot: the one an earlier owner of s's storage left past its length,
// to be overwritten whole, or a new one.
func Next[T any](s []*T) ([]*T, *T) {
	n := len(s)
	s = slices.Grow(s, 1)[:n+1]
	if s[n] == nil {
		s[n] = new(T)
	}
	return s, s[n]
}

// List is a single-owner free list. The zero value is empty.
type List[T any] struct {
	idle []T
}

// Get pops the value put last; ok is false when the list is empty.
func (l *List[T]) Get() (v T, ok bool) {
	n := len(l.idle)
	if n == 0 {
		return v, false
	}
	v = l.idle[n-1]
	var zero T
	l.idle[n-1] = zero // the slot must not pin a value its taker drops
	l.idle = l.idle[:n-1]
	return v, true
}

// Put pushes v for a later Get.
func (l *List[T]) Put(v T) { l.idle = append(l.idle, v) }

// Shelf is a free list shared by every goroutine of the process. The
// zero value is empty.
type Shelf[T any] struct {
	mu   sync.Mutex
	idle List[T]
}

// Get borrows the value returned last; ok is false when the shelf is
// empty.
func (s *Shelf[T]) Get() (v T, ok bool) {
	s.mu.Lock()
	v, ok = s.idle.Get()
	s.mu.Unlock()
	return v, ok
}

// Put returns v to the shelf. The caller must not use it afterwards.
func (s *Shelf[T]) Put(v T) {
	s.mu.Lock()
	s.idle.Put(v)
	s.mu.Unlock()
}
