// Package sched provides the fleet work-stealing scheduler: a
// deterministic-by-construction fan-out of an index space [0, n) over a
// fixed worker count. Each worker owns a contiguous index range and
// pops from its low end; a worker that drains its range steals the
// upper half of a victim's remaining range and continues. Results are
// slotted by index, so output is byte-identical at any worker count —
// scheduling decides only WHEN fn(i) runs, never what it computes.
//
// Range splitting keeps each worker on a contiguous run of indices
// (shard i and i+1 usually share a base image and pooled buffers) and
// contends on a per-worker word instead of one global counter; stealing
// in half ranges rebalances when per-index cost is wildly uneven, as it
// is for fleet shards with randomized fault schedules. Every fan-out in
// the repo — hftbench's figure points, chaos campaigns, fleets — goes
// through ForEach.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// wrange is one worker's index range, packed hi<<32|lo into a single
// word so pop and steal race through CAS only.
type wrange struct {
	bits atomic.Uint64
	// pad keeps neighbouring ranges off one cache line.
	_ [7]uint64
}

func pack(lo, hi uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }

func unpack(b uint64) (lo, hi uint32) { return uint32(b), uint32(b >> 32) }

// pop claims the next index from the low end of the range.
func (r *wrange) pop() (int, bool) {
	for {
		b := r.bits.Load()
		lo, hi := unpack(b)
		if lo >= hi {
			return 0, false
		}
		if r.bits.CompareAndSwap(b, pack(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// steal removes the upper half (rounded up) of the range and returns
// it. Stealing from the top keeps the victim's locality run intact.
func (r *wrange) steal() (lo, hi uint32, ok bool) {
	for {
		b := r.bits.Load()
		vlo, vhi := unpack(b)
		if vlo >= vhi {
			return 0, 0, false
		}
		take := (vhi - vlo + 1) / 2
		if r.bits.CompareAndSwap(b, pack(vlo, vhi-take)) {
			return vhi - take, vhi, true
		}
	}
}

// Workers resolves a worker-count request: n < 1 means all cores.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n), fanned across the given
// number of workers (resolved via Workers). Every index runs exactly
// once; a panic in fn stops the fan-out early and re-panics on the
// caller's goroutine. workers == 1 runs inline with no goroutines.
func ForEach(workers, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	ranges := make([]wrange, workers)
	// Initial split: contiguous, near-equal ranges covering [0, n).
	for w := 0; w < workers; w++ {
		lo := uint32(w * n / workers)
		hi := uint32((w + 1) * n / workers)
		ranges[w].bits.Store(pack(lo, hi))
	}

	var (
		wg       sync.WaitGroup
		panicked atomic.Value
		stop     atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.Store(fmt.Sprintf("%v", r))
					stop.Store(true)
				}
			}()
			self := &ranges[w]
			for !stop.Load() {
				if i, ok := self.pop(); ok {
					fn(i)
					continue
				}
				// Own range drained: steal the upper half of the first
				// victim with work and adopt it as the new own range.
				// A worker exits only with an empty range, so every
				// index is drained by whichever worker owns it last.
				stolen := false
				for d := 1; d < workers; d++ {
					if lo, hi, ok := ranges[(w+d)%workers].steal(); ok {
						self.bits.Store(pack(lo, hi))
						stolen = true
						break
					}
				}
				if !stolen {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(fmt.Sprintf("sched: worker: %v", p))
	}
}
