package machine

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
)

// TLBEntry is one translation: virtual page number -> physical page
// number with permission flags (see isa.TLB* bits).
type TLBEntry struct {
	VPN   uint32 // virtual page number
	PPN   uint32 // physical page number
	Flags uint32 // isa.TLBRead|TLBWrite|TLBExec and minimum-PL field
	Valid bool
}

// ReplacePolicy chooses which TLB slot to evict on insert. The paper's
// §3.2 observation — that hardware TLB replacement on the HP 9000/720 is
// NON-DETERMINISTIC, violating the Ordinary Instruction Assumption — is
// modelled by RandomPolicy, whose random stream is private to the chip
// (seeded per machine instance, not from virtual-machine state).
type ReplacePolicy interface {
	// Victim returns the slot index to evict. All slots are valid when
	// Victim is called (invalid slots are used first).
	Victim(tlb *TLB) int
	// Touch records a use of slot i (for recency-based policies).
	Touch(i int)
	// Name identifies the policy in stats and logs.
	Name() string
}

// LRUPolicy evicts the least-recently-used slot. Deterministic.
type LRUPolicy struct {
	stamp uint64
	last  []uint64
}

// NewLRUPolicy returns an LRU policy for a TLB with n slots.
func NewLRUPolicy(n int) *LRUPolicy { return &LRUPolicy{last: make([]uint64, n)} }

// Victim implements ReplacePolicy.
func (p *LRUPolicy) Victim(tlb *TLB) int {
	best, bestAt := 0, p.last[0]
	for i := 1; i < len(p.last); i++ {
		if p.last[i] < bestAt {
			best, bestAt = i, p.last[i]
		}
	}
	return best
}

// Touch implements ReplacePolicy.
func (p *LRUPolicy) Touch(i int) {
	p.stamp++
	p.last[i] = p.stamp
}

// Name implements ReplacePolicy.
func (p *LRUPolicy) Name() string { return "lru" }

// RoundRobinPolicy evicts slots cyclically. Deterministic.
type RoundRobinPolicy struct{ next int }

// NewRoundRobinPolicy returns a round-robin policy.
func NewRoundRobinPolicy() *RoundRobinPolicy { return &RoundRobinPolicy{} }

// Victim implements ReplacePolicy.
func (p *RoundRobinPolicy) Victim(tlb *TLB) int {
	v := p.next % len(tlb.slots)
	p.next++
	return v
}

// Touch implements ReplacePolicy.
func (p *RoundRobinPolicy) Touch(int) {}

// Name implements ReplacePolicy.
func (p *RoundRobinPolicy) Name() string { return "roundrobin" }

// RandomPolicy evicts a pseudo-random slot using a stream private to the
// processor chip. Two processors built with different seeds develop
// different TLB contents from identical reference strings — reproducing
// the non-determinism Bressoud & Schneider found on the HP 9000/720.
type RandomPolicy struct{ rng *rand.Rand }

// NewRandomPolicy returns a random-replacement policy with its own seed.
func NewRandomPolicy(seed int64) *RandomPolicy {
	return &RandomPolicy{rng: rand.New(rand.NewSource(seed))}
}

// Victim implements ReplacePolicy.
func (p *RandomPolicy) Victim(tlb *TLB) int { return p.rng.Intn(len(tlb.slots)) }

// Touch implements ReplacePolicy.
func (p *RandomPolicy) Touch(int) {}

// Name implements ReplacePolicy.
func (p *RandomPolicy) Name() string { return "random" }

// TLB is a software-managed translation lookaside buffer. Hardware never
// walks page tables: a missing translation raises a TLB-miss trap and
// system software (the guest kernel, or the hypervisor per the paper's
// §3.2 fix) inserts entries with ITLBI.
type TLB struct {
	slots  []TLBEntry
	policy ReplacePolicy
	// lru is the concrete policy when it is LRU (the default), letting
	// the per-fetch touch on the batched-run path inline instead of
	// paying an interface dispatch per instruction.
	lru *LRUPolicy
	// pending is a slot with a deferred fetch touch (-1 none): the
	// batched executor coalesces a run of fetches from one slot into a
	// single recency update, applied before any other slot is touched.
	// Replacement decisions depend only on the relative order of
	// last-touch events across slots, which coalescing preserves;
	// Stats.Hits is still counted per fetch.
	pending int
	// gen is the content generation: it advances whenever a slot's entry
	// may have changed (Insert, Purge, restore). The run memo keys on it.
	gen uint64
	// replayable: the policy is one of this package's three, whose touch
	// is either the LRU stamp write or nothing at all, so the run memo can
	// replay a call's recency without calling Touch.
	replayable bool

	// Stats counts TLB behaviour for experiments.
	Stats TLBStats
}

// TLBStats counts TLB events.
type TLBStats struct {
	Hits    uint64
	Misses  uint64
	Inserts uint64
	Evicts  uint64
	Purges  uint64
}

// NewTLB creates a TLB with n slots and the given replacement policy.
func NewTLB(n int, policy ReplacePolicy) *TLB {
	if n <= 0 {
		panic(fmt.Sprintf("machine: TLB size %d", n))
	}
	return new(TLB).reset(make([]TLBEntry, n), policy)
}

// reset makes t an empty TLB over slots, which must be zero, under policy.
func (t *TLB) reset(slots []TLBEntry, policy ReplacePolicy) *TLB {
	lru, _ := policy.(*LRUPolicy)
	replayable := false
	switch policy.(type) {
	case *LRUPolicy, *RoundRobinPolicy, *RandomPolicy:
		replayable = true
	}
	*t = TLB{slots: slots, policy: policy, lru: lru, pending: -1, replayable: replayable}
	return t
}

// touch applies one recency update, devirtualized for the default LRU.
func (t *TLB) touch(i int) {
	if p := t.lru; p != nil {
		p.stamp++
		p.last[i] = p.stamp
	} else {
		t.policy.Touch(i)
	}
}

// flushPending applies a deferred fetch touch. Every operation that
// touches, inserts, evicts or purges goes through here first, so the
// order of recency events across slots matches the unbatched path.
func (t *TLB) flushPending() {
	if i := t.pending; i >= 0 {
		t.pending = -1
		t.touch(i)
	}
}

// Size returns the number of slots.
func (t *TLB) Size() int { return len(t.slots) }

// Lookup finds the entry mapping vpn. It records hit/miss statistics and
// updates recency state on hit.
func (t *TLB) Lookup(vpn uint32) (TLBEntry, bool) {
	t.flushPending()
	for i := range t.slots {
		if t.slots[i].Valid && t.slots[i].VPN == vpn {
			t.touch(i)
			t.Stats.Hits++
			return t.slots[i], true
		}
	}
	t.Stats.Misses++
	return TLBEntry{}, false
}

// Probe is Lookup without statistics or recency side effects (used by the
// PROBE instruction and by debuggers).
func (t *TLB) Probe(vpn uint32) (TLBEntry, bool) {
	for i := range t.slots {
		if t.slots[i].Valid && t.slots[i].VPN == vpn {
			return t.slots[i], true
		}
	}
	return TLBEntry{}, false
}

// probeIndex is Probe returning the matching slot index as well, so the
// batched executor can cache which slot maps the current execution page.
// Like Probe it records no statistics and no recency.
func (t *TLB) probeIndex(vpn uint32) (TLBEntry, int, bool) {
	for i := range t.slots {
		if t.slots[i].Valid && t.slots[i].VPN == vpn {
			return t.slots[i], i, true
		}
	}
	return TLBEntry{}, -1, false
}

// touchFetch records one instruction-fetch hit on slot i: exactly the
// statistics and recency side effects a Lookup for the fetch would have
// had. The batched executor calls it once per fetched instruction so
// that LRU state and hit counts stay bit-identical to the Step path.
func (t *TLB) touchFetch(i int) {
	if t.pending != i {
		t.flushPending()
		t.pending = i
	}
	t.Stats.Hits++
}

// Insert adds a translation, replacing any existing entry for the same
// VPN, else filling an invalid slot, else evicting per the policy.
func (t *TLB) Insert(e TLBEntry) {
	t.flushPending()
	t.gen++
	t.Stats.Inserts++
	e.Valid = true
	for i := range t.slots {
		if t.slots[i].Valid && t.slots[i].VPN == e.VPN {
			t.slots[i] = e
			t.touch(i)
			return
		}
	}
	for i := range t.slots {
		if !t.slots[i].Valid {
			t.slots[i] = e
			t.touch(i)
			return
		}
	}
	v := t.policy.Victim(t)
	t.Stats.Evicts++
	t.slots[v] = e
	t.touch(v)
}

// Purge invalidates every entry.
func (t *TLB) Purge() {
	t.flushPending()
	t.gen++
	t.Stats.Purges++
	for i := range t.slots {
		t.slots[i].Valid = false
	}
}

// Entries returns a copy of the valid entries (for tests and debugging).
func (t *TLB) Entries() []TLBEntry {
	var out []TLBEntry
	for _, e := range t.slots {
		if e.Valid {
			out = append(out, e)
		}
	}
	return out
}

// permitted reports whether an access of the given kind at privilege
// level pl is allowed by the entry's flags.
func permitted(e TLBEntry, kind accessKind, pl uint32) bool {
	return permittedFlags(e.Flags, kind, pl)
}

// permittedFlags is permitted on a bare flags word (the trace executor
// caches flags rather than whole entries).
func permittedFlags(flags uint32, kind accessKind, pl uint32) bool {
	minPL := (flags & isa.TLBPLMask) >> isa.TLBPLShift
	if pl != 0 && pl > minPL {
		return false
	}
	switch kind {
	case accessRead:
		return flags&isa.TLBRead != 0
	case accessWrite:
		return flags&isa.TLBWrite != 0
	case accessExec:
		return flags&isa.TLBExec != 0
	}
	return false
}
