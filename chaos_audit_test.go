package hft

// Audit tests for the perturbation surface the chaos campaign drives:
// post-completion behavior of every live mutation entry point, journal
// hygiene for no-op perturbations, and a Save taken immediately after
// an AddBackup quiesce (the "AddBackup racing a Save" journal-replay
// edge).

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

func runToCompletion(t *testing.T, c *Cluster) Result {
	t.Helper()
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPerturbationsAfterDone pins the public contract: once Done
// reports true, FailBackup, SetLinkQuality and AddBackup return
// ErrCompleted (FailBackup of no backup is an index error before Done,
// and FailBackup(0) after it too), and FailPrimary and RunFor are
// no-ops that are NOT journaled (a subsequent Save must replay without
// any phantom perturbation or pause), whether Wait or RunUntil
// completed the run.
func TestPerturbationsAfterDone(t *testing.T) {
	for _, complete := range []struct {
		name string
		run  func(*Cluster) error
	}{
		{"Wait", func(c *Cluster) error { _, err := c.Wait(context.Background()); return err }},
		{"RunUntil", func(c *Cluster) error {
			_, err := c.RunUntil(func(Snapshot) bool { return false })
			return err
		}},
	} {
		c, err := NewCluster(WithWorkload(CPUIntensive(2000)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, i := range []int{0, 2} { // one backup: neither index names one
			if err := c.FailBackup(i); err == nil || errors.Is(err, ErrCompleted) {
				t.Errorf("FailBackup(%d) before Done: %v, want an index error", i, err)
			}
		}
		if err := complete.run(c); err != nil {
			t.Fatal(err)
		}
		want, err := c.Result()
		if err != nil {
			t.Fatalf("%s: workload did not complete: %v", complete.name, err)
		}

		if err := c.FailBackup(1); !errors.Is(err, ErrCompleted) {
			t.Errorf("FailBackup after Done: %v, want ErrCompleted", err)
		}
		if err := c.FailBackup(0); err == nil || errors.Is(err, ErrCompleted) {
			t.Errorf("FailBackup(0) after Done: %v, want an index error", err)
		}
		if err := c.SetLinkQuality(LinkQuality{BitsPerSecond: 1_000_000}); !errors.Is(err, ErrCompleted) {
			t.Errorf("SetLinkQuality after Done: %v, want ErrCompleted", err)
		}
		if _, err := c.AddBackup(); !errors.Is(err, ErrCompleted) {
			t.Errorf("AddBackup after Done: %v, want ErrCompleted", err)
		}
		c.FailPrimary() // documented no-op; must not journal
		if _, err := c.RunFor(Millisecond); err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: restore after post-Done perturbation attempts: %v", complete.name, err)
		}
		defer restored.Close()
		got, err := restored.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: restored result drifted after post-Done no-ops: %+v vs %+v", complete.name, got, want)
		}
	}
}

// TestDuplicateFailstopNotJournaled: failing an already-failed backup
// (or primary) must not append journal entries — a checkpoint taken
// afterwards replays cleanly and identically.
func TestDuplicateFailstopNotJournaled(t *testing.T) {
	c, err := NewCluster(WithWorkload(CPUIntensive(20000)), WithBackups(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunUntil(func(s Snapshot) bool { return s.Commits >= 4 }); err != nil {
		t.Fatal(err)
	}
	if err := c.FailBackup(2); err != nil {
		t.Fatal(err)
	}
	// Duplicates: same backup again, and a dead-primary re-fail later.
	if err := c.FailBackup(2); err != nil {
		t.Errorf("re-failing dead backup 2: %v", err)
	}
	c.FailPrimary()
	c.FailPrimary() // second failstop finds a dead primary

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes())) // verify=on replays the journal
	if err != nil {
		t.Fatalf("journal with duplicate failstops did not replay: %v", err)
	}
	defer restored.Close()

	want := runToCompletion(t, c)
	got := runToCompletion(t, restored)
	if got != want {
		t.Errorf("restored run diverged: %+v vs %+v", got, want)
	}
	if !want.Promoted {
		t.Error("primary failstop did not promote the surviving backup")
	}
}

// TestSaveImmediatelyAfterAddBackup is the "AddBackup racing a Save"
// edge: AddBackup quiesces at a commit boundary with a state transfer
// in flight, and Save captures exactly that position. Restore must
// replay the reintegration (journal) and land on the identical state —
// transfer and all — proven by the restored session finishing with the
// same result.
func TestSaveImmediatelyAfterAddBackup(t *testing.T) {
	c, err := NewCluster(WithWorkload(DiskWrite(3, 2048)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunUntil(func(s Snapshot) bool { return s.Commits >= 3 }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddBackup(); err != nil {
		t.Fatal(err)
	}
	// No time advances between the reintegration and the capture.
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore of save-at-reintegration-boundary: %v", err)
	}
	defer restored.Close()
	if restored.Snapshot().Nodes != c.Snapshot().Nodes {
		t.Errorf("restored node count %d, original %d", restored.Snapshot().Nodes, c.Snapshot().Nodes)
	}

	want := runToCompletion(t, c)
	got := runToCompletion(t, restored)
	if got != want {
		t.Errorf("restored run diverged: %+v vs %+v", got, want)
	}
}

// TestSnapshotCommitsMonotonic: the public Snapshot's Commits field —
// the chaos coordinate — is cumulative and survives a failover (unlike
// Epochs, which resets to the promoted backup's counter).
func TestSnapshotCommitsMonotonic(t *testing.T) {
	c, err := NewCluster(WithWorkload(CPUIntensive(30000)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	snap, err := c.RunUntil(func(s Snapshot) bool { return s.Commits >= 5 })
	if err != nil {
		t.Fatal(err)
	}
	if snap.Commits < 5 {
		t.Fatalf("RunUntil stopped at commit %d", snap.Commits)
	}
	c.FailPrimary()
	pre := snap.Commits
	snap, err = c.RunUntil(func(s Snapshot) bool { return s.Commits >= pre+3 })
	if err != nil {
		t.Fatal(err)
	}
	if snap.Commits < pre+3 {
		t.Errorf("Commits did not continue across failover: %d then %d", pre, snap.Commits)
	}
	if !snap.Promoted {
		t.Error("failover did not promote")
	}
	runToCompletion(t, c)
}
