package sim

import (
	"fmt"
	"testing"
)

// The promise contract (PromiseQuiet, NextLoud, StepQuiet), one rule per
// subtest. The rig: a promiser that sleeps 3, sleeps 7 and answers
// StepQuiet throughout, and at time 10 — once every process has made
// its start — promises to go on like that until 1000
// (the lattice i·10 + {0, 3}); and an observer a nanosecond out of phase
// that asks NextLoud at every one of its own (quiet, never promised)
// dispatches. A promise that stands reads as its end; one that is void
// reads as the promiser's next wake.

// quietRig starts the two and returns what the observer saw, by time.
type quietRig struct {
	k    *Kernel
	seen map[Time]Time
}

func newQuietRig() *quietRig {
	r := &quietRig{k: NewKernel(1), seen: map[Time]Time{}}
	k := r.k
	half := false
	k.Start("promiser", func(p *Proc) (Time, StepStatus) {
		if k.Now() == 10 {
			p.PromiseQuiet(1000, 3, 7)
		}
		if half = !half; half {
			return 3, StepQuiet
		}
		return 7, StepQuiet
	})
	k.Start("observer", func(p *Proc) (Time, StepStatus) {
		if k.Now() == 0 {
			return 1, StepMore
		}
		r.seen[k.Now()] = k.NextLoud()
		return 10, StepQuiet
	})
	return r
}

// wakeAfter is the promiser's first wake after t: what NextLoud reads
// once its promise is void.
func wakeAfter(t Time) Time {
	for _, w := range []Time{t - t%10 + 3, t - t%10 + 10, t - t%10 + 13} {
		if w > t {
			return w
		}
	}
	panic("unreachable")
}

func (r *quietRig) want(t *testing.T, at, loud Time) {
	t.Helper()
	if got, ok := r.seen[at]; !ok || got != loud {
		t.Errorf("at %d NextLoud = %d (asked: %v), want %d", at, got, ok, loud)
	}
}

func TestPromiseQuiet(t *testing.T) {
	t.Run("stands across quiet inline steps, ends at its until", func(t *testing.T) {
		r := newQuietRig()
		defer r.k.Shutdown()
		r.k.RunUntil(2000)
		// Forty dispatches of the two, every one quiet, leave
		// it standing; past 1000 the wake is loud again.
		r.want(t, 1, 3) // not yet promised
		for _, at := range []Time{11, 21, 201, 991} {
			r.want(t, at, 1000)
		}
		r.want(t, 1001, 1003)
		r.want(t, 1501, 1503)
	})
	t.Run("the RunUntil bound is loud the instant after", func(t *testing.T) {
		r := newQuietRig()
		defer r.k.Shutdown()
		r.k.RunUntil(500)
		r.want(t, 11, 501)
		r.want(t, 491, 501)
	})
	t.Run("void after an event dispatch", func(t *testing.T) {
		r := newQuietRig()
		defer r.k.Shutdown()
		r.k.At(55, func() {})
		r.k.RunUntil(200)
		r.want(t, 41, 55) // the heap's head bounds it while it stands
		r.want(t, 51, 55)
		r.want(t, 61, wakeAfter(61))
		r.want(t, 191, wakeAfter(191))
	})
	t.Run("void after a switch into any process", func(t *testing.T) {
		r := newQuietRig()
		defer r.k.Shutdown()
		r.k.Spawn("bystander", func(p *Proc) { p.Sleep(55) }) // touches nothing; still loud
		r.k.RunUntil(200)
		r.want(t, 51, 55) // an unpromised wake is loud
		r.want(t, 61, wakeAfter(61))
	})
	t.Run("void after loop re-entry", func(t *testing.T) {
		r := newQuietRig()
		defer r.k.Shutdown()
		r.k.RunUntil(45)
		r.want(t, 41, 46)
		r.k.RunUntil(200) // whoever held the clock may have done anything
		r.want(t, 51, wakeAfter(51))
	})
	t.Run("NextLoud is now once stopped", func(t *testing.T) {
		k := NewKernel(1)
		defer k.Shutdown()
		var before, after Time
		k.Spawn("stopper", func(p *Proc) {
			p.Sleep(7)
			k.At(100, func() {})
			before = k.NextLoud()
			k.Stop()
			after = k.NextLoud()
		})
		k.Run()
		if before != 100 || after != 7 {
			t.Errorf("NextLoud %d before Stop and %d after, want 100 and 7", before, after)
		}
	})
}

// TestPromiseQuietLoudStep: a step that answers StepMore voids standing
// promises, with no coroutine and no event.
func TestPromiseQuietLoudStep(t *testing.T) {
	r := newQuietRig()
	defer r.k.Shutdown()
	r.k.Start("stepper", func(p *Proc) (Time, StepStatus) {
		switch r.k.Now() {
		case 0:
			return 2, StepMore
		case 2:
			p.PromiseQuiet(1000, 60, 40) // so that its wake does not bound NextLoud
			return 60, StepQuiet
		}
		return 1000, StepMore // at 62: it breaks its word, and says so
	})
	r.k.RunUntil(2000)
	r.want(t, 51, 1000)
	r.want(t, 61, 1000)
	r.want(t, 71, wakeAfter(71))
}

// TestPromiseQuietLattices: whether a lattice is clear of the standing
// promises. Equal (a, b): anchors 0, a or b apart modulo a+b can share an
// instant; anything else cannot. Different (a, b): refused. And a
// process that replaces its promise with one on another lattice voids
// everyone's.
func TestPromiseQuietLattices(t *testing.T) {
	cases := []struct {
		offset, a, b Time
		clear        bool
	}{
		{0, 3, 7, false},  // in phase
		{10, 3, 7, false}, // a period on
		{3, 3, 7, false},  // its head on our middle
		{7, 3, 7, false},  // its middle on our head
		{13, 3, 7, false},
		{1, 3, 7, true},
		{4, 3, 7, true},
		{9, 3, 7, true},
		{1, 7, 3, false}, // same period, other split
		{1, 3, 8, false}, // other period
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("offset %d a %d b %d", c.offset, c.a, c.b), func(t *testing.T) {
			k := NewKernel(1)
			defer k.Shutdown()
			half := false
			k.Start("first", func(p *Proc) (Time, StepStatus) {
				if k.Now() == 10 {
					if _, clear := p.PromiseQuiet(1000, 3, 7); !clear {
						t.Error("alone, and not clear")
					}
				}
				if half = !half; half {
					return 3, StepQuiet
				}
				return 7, StepQuiet
			})
			asked := false
			k.Start("second", func(p *Proc) (Time, StepStatus) {
				if k.Now() < 20+c.offset {
					return 20 + c.offset - k.Now(), StepQuiet // a quiet wait for its instant
				}
				loud, clear := p.PromiseQuiet(1000, c.a, c.b)
				if asked = true; loud != 1000 || clear != c.clear {
					t.Errorf("PromiseQuiet = (%d, %v), want (1000, %v)", loud, clear, c.clear)
				}
				return 1 << 40, StepQuiet
			})
			k.RunUntil(2000)
			if !asked {
				t.Fatal("the second promiser never ran")
			}
		})
	}

	t.Run("a promise on a new lattice is loud", func(t *testing.T) {
		r := newQuietRig()
		defer r.k.Shutdown()
		r.k.Start("fickle", func(p *Proc) (Time, StepStatus) {
			switch r.k.Now() {
			case 25:
				p.PromiseQuiet(1000, 2, 3)
			case 50:
				p.PromiseQuiet(1000, 2, 3) // the same lattice, five periods on
			case 75:
				p.PromiseQuiet(1000, 2, 4)
			}
			return 25, StepQuiet
		})
		r.k.RunUntil(2000)
		r.want(t, 41, 1000)
		r.want(t, 61, 1000)
		r.want(t, 81, wakeAfter(81)) // the promiser's went with the old lattice
	})

	t.Run("a free lattice is no promise", func(t *testing.T) {
		k := NewKernel(1)
		defer k.Shutdown()
		k.Start("free", func(p *Proc) (Time, StepStatus) {
			if loud, clear := p.PromiseQuiet(1000, 0, 0); clear || loud != Forever {
				t.Errorf("PromiseQuiet(a+b = 0) = (%d, %v), want (Forever, false)", loud, clear)
			}
			return 0, StepDone
		})
		k.Run()
	})
}
