package session

// Edge cases the chaos campaign's perturbation surface relies on:
// perturbations racing workload completion, the bounded-progress
// watchdog's error surface, and journal-replay corner cases (two
// perturbations at one commit ordinal, failstops aimed at already-dead
// replicas, reintegration racing a capture).

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestPerturbAfterCompletion pins satellite contract #1: every
// perturbation entry point reports ErrCompleted once the workload is
// done, instead of silently no-opping. Completion is checked before the
// topology, so a completed bare session reports it too.
func TestPerturbAfterCompletion(t *testing.T) {
	for _, bare := range []bool{false, true} {
		o := cpuOpts(2000)
		o.Bare = bare
		e := New(o)
		defer e.Close()
		if err := e.RunToCompletion(nil); err != nil {
			t.Fatal(err)
		}
		if !e.Done() {
			t.Fatalf("bare=%v: workload did not complete", bare)
		}

		for i := 0; i < 2; i++ {
			if applied, err := e.FailNode(i); applied || !errors.Is(err, ErrCompleted) {
				t.Errorf("bare=%v: FailNode(%d) after completion: applied=%v err=%v, want false, ErrCompleted", bare, i, applied, err)
			}
		}
		if err := e.SetLinkQuality(netsim.Quality{BitsPerSecond: 1_000_000}); !errors.Is(err, ErrCompleted) {
			t.Errorf("bare=%v: SetLinkQuality after completion: %v, want ErrCompleted", bare, err)
		}
		if _, err := e.AddBackup(AddBackupConfig{}); !errors.Is(err, ErrCompleted) {
			t.Errorf("bare=%v: AddBackup after completion: %v, want ErrCompleted", bare, err)
		}
	}
}

// TestFailPrimaryReportsEffect: true exactly once — the second call
// finds the primary already dead.
func TestFailPrimaryReportsEffect(t *testing.T) {
	e := New(cpuOpts(20000))
	defer e.Close()
	if err := e.RunFor(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if applied, err := e.FailNode(0); !applied || err != nil {
		t.Errorf("first FailNode(0): applied=%v err=%v, want an effect", applied, err)
	}
	if applied, err := e.FailNode(0); applied || err != nil {
		t.Errorf("second FailNode(0): applied=%v err=%v, want no effect on a dead primary", applied, err)
	}
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
}

// TestStallErrorSurface forces a scheduler livelock inside a live
// session and requires RunFor to surface ErrStalled naming the
// offending process. The livelock is injected directly into the
// session's kernel — a callback rescheduling itself at one instant —
// which is exactly what a protocol bug that stops advancing virtual
// time looks like to the watchdog.
func TestStallErrorSurface(t *testing.T) {
	e := New(cpuOpts(20000))
	defer e.Close()
	e.Boot()
	e.k.SetStallLimit(500) // tighten so the test is fast

	var spin func()
	spin = func() { e.k.At(e.k.Now(), spin) }
	e.k.At(e.k.Now()+sim.Millisecond, spin)

	err := e.RunFor(10 * sim.Millisecond)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("RunFor with a livelock: %v, want ErrStalled", err)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *StallError", err)
	}
	if se.At != e.Now() {
		t.Errorf("stall at %v, session now %v", se.At, e.Now())
	}
	if se.Proc == "" {
		t.Error("StallError does not name the dispatched process")
	}

	// The stall is sticky: further advancement keeps failing rather
	// than spinning forever.
	if err := e.RunFor(10 * sim.Millisecond); !errors.Is(err, ErrStalled) {
		t.Errorf("second RunFor: %v, want ErrStalled", err)
	}
	if err := e.RunToCompletion(nil); !errors.Is(err, ErrStalled) {
		t.Errorf("RunToCompletion on stalled session: %v, want ErrStalled", err)
	}
}

// TestFailBackupFreedIndex: a failstop aimed at a backup index that a
// prior failstop already freed must be an error-free no-op (the index
// is in range; the replica is just dead) — and must not disturb the
// run's result. Mirrors the journal-replay situation where a replayed
// FailBackup targets a node an earlier entry already killed.
func TestFailBackupFreedIndex(t *testing.T) {
	o := cpuOpts(20000)
	o.Backups = 2
	e := New(o)
	defer e.Close()
	if err := e.RunFor(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if applied, err := e.FailNode(1); !applied || err != nil {
		t.Fatalf("FailNode(1): applied=%v err=%v, want an effect", applied, err)
	}
	// Same index again: dead already, no effect, no error.
	if applied, err := e.FailNode(1); applied || err != nil {
		t.Errorf("re-failing dead backup: applied=%v err=%v", applied, err)
	}
	// Out of range stays an error.
	if _, err := e.FailNode(7); err == nil {
		t.Error("FailNode(7) on a 2-backup set succeeded")
	}
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	r, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same run with a single failstop.
	ref := New(func() Options { o2 := cpuOpts(20000); o2.Backups = 2; return o2 }())
	defer ref.Close()
	if err := ref.RunFor(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if err := ref.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	rr, err := ref.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r.Time != rr.Time || r.Guest != rr.Guest {
		t.Errorf("duplicate failstop changed the run: %v/%#x vs %v/%#x",
			r.Time, r.Guest.Checksum, rr.Time, rr.Guest.Checksum)
	}
}

// TestSameCommitOrdinalPerturbations: two perturbations applied at the
// SAME commit ordinal must replay deterministically in application
// order — the coordinate does not disambiguate them; the journal's
// sequence does. Pins the semantics the chaos shrinker leans on when
// coordinate reduction collapses two steps onto one boundary.
func TestSameCommitOrdinalPerturbations(t *testing.T) {
	run := func() (Result, error) {
		o := cpuOpts(20000)
		o.Backups = 2
		e := New(o)
		defer e.Close()
		if err := e.RunUntilCommits(6); err != nil {
			return Result{}, err
		}
		// Two perturbations, same ordinal, no time advance between.
		if err := e.SetLinkQuality(netsim.Quality{BitsPerSecond: 2_000_000}); err != nil {
			return Result{}, err
		}
		if _, err := e.FailNode(2); err != nil {
			return Result{}, err
		}
		if err := e.RunToCompletion(nil); err != nil {
			return Result{}, err
		}
		return e.Result()
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Guest != b.Guest || a.PrimaryStats != b.PrimaryStats {
		t.Errorf("same-ordinal perturbation pair not deterministic: %v vs %v", a.Time, b.Time)
	}
}

// TestAddBackupSnapshotCommits: Snapshot.Commits tracks the cumulative
// commit ordinal across a reintegration quiesce — AddBackup moves
// virtual time to the next boundary, and the snapshot taken right
// after must agree with Commits() (the pause coordinate Save records
// when a Save races an AddBackup).
func TestAddBackupSnapshotCommits(t *testing.T) {
	e := New(cpuOpts(20000))
	defer e.Close()
	if err := e.RunUntilCommits(4); err != nil {
		t.Fatal(err)
	}
	before := e.Commits()
	if _, err := e.AddBackup(AddBackupConfig{}); err != nil {
		t.Fatal(err)
	}
	after := e.Commits()
	if after <= before {
		t.Fatalf("AddBackup did not advance the commit ordinal (%d -> %d)", before, after)
	}
	if s := e.Snapshot(); s.Commits != after {
		t.Errorf("Snapshot.Commits = %d, Commits() = %d", s.Commits, after)
	}
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
}

// TestFailNodeSeversEveryChannel pins the one failstop rule every
// replica shares, whatever its position: the node stops once (a second
// failstop finds it dead), every channel from it goes down — upstream,
// downstream and the one to a late joiner spliced in after boot — and the
// survivors finish with the bare run's transcripts. On a bare session
// there is no replica set: node 0 reports no effect, any other index the
// bare error.
func TestFailNodeSeversEveryChannel(t *testing.T) {
	bo := serveOpts(16)
	bo.Bare = true
	bare := New(bo)
	defer bare.Close()
	if applied, err := bare.FailNode(0); applied || err != nil {
		t.Errorf("bare FailNode(0): applied=%v err=%v, want false, nil", applied, err)
	}
	if _, err := bare.FailNode(1); err == nil || !strings.Contains(err.Error(), "bare run has no backups") {
		t.Errorf("bare FailNode(1): %v, want the bare error", err)
	}
	if err := bare.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	ref, err := bare.Result()
	if err != nil {
		t.Fatal(err)
	}

	for dead := 0; dead <= 2; dead++ {
		o := serveOpts(16)
		o.Backups = 2
		o.DetectTimeout = 2 * sim.Millisecond
		e := New(o)
		defer e.Close()
		if err := e.RunUntilCommits(4); err != nil {
			t.Fatal(err)
		}
		joiner, err := e.AddBackup(AddBackupConfig{})
		if err != nil || joiner != 3 {
			t.Fatalf("AddBackup: node %d, err %v, want node 3", joiner, err)
		}
		if applied, err := e.FailNode(dead); !applied || err != nil {
			t.Fatalf("FailNode(%d): applied=%v err=%v, want an effect", dead, applied, err)
		}
		if applied, err := e.FailNode(dead); applied || err != nil {
			t.Errorf("second FailNode(%d): applied=%v err=%v, want no effect", dead, applied, err)
		}
		for peer := 0; peer <= joiner; peer++ {
			if peer == dead {
				continue
			}
			if tx, rx := e.cluster.Channel(dead, peer); !tx.Down() || !rx.Down() {
				t.Errorf("node %d failstopped, its channel to node %d is still up (tx down=%v, rx down=%v)",
					dead, peer, tx.Down(), rx.Down())
			}
		}
		if err := e.RunToCompletion(nil); err != nil {
			t.Fatalf("node %d failstopped: %v", dead, err)
		}
		res, err := e.Result()
		if err != nil {
			t.Fatalf("node %d failstopped: %v", dead, err)
		}
		if res.Console != ref.Console || res.NetReplies != ref.NetReplies || res.Guest.Checksum != ref.Guest.Checksum {
			t.Errorf("node %d failstopped: console %q, %d reply bytes, checksum %#x; bare %q, %d, %#x",
				dead, res.Console, len(res.NetReplies), res.Guest.Checksum,
				ref.Console, len(ref.NetReplies), ref.Guest.Checksum)
		}
		if res.Promoted != (dead == 0) {
			t.Errorf("node %d failstopped: promoted=%v", dead, res.Promoted)
		}
	}
}
