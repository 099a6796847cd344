package hypervisor_test

// The storm under the whole stack, through the public API — here rather
// than beside the root package's tests because the reference arm's switch
// (debugNoStorm) is this package's, and only its own tests reach it.

import (
	"bytes"
	"testing"

	hft "repro"
	"repro/internal/hypervisor"
)

// TestStormSaveTimeSliced: the svc_failover session — open-loop clients
// on the served guest under output commit, a failstop of the primary,
// promotion, AddBackup's state transfer — advanced in RunFor slices that
// pause it mid-storm, on two clusters: one under WithoutStorms for every
// call that can run the kernel, one as shipped. Save at every pause must
// write the same bytes on both, and the blobs must restore: Restore
// replays the journal to the pause and compares its own capture with the
// blob's, so a reference blob restored with storms on (and the other way
// round) is the differential once more, from a different set of pauses.
func TestStormSaveTimeSliced(t *testing.T) {
	const requests = 240
	boot := func() *hft.Cluster {
		c, err := hft.NewCluster(
			hft.WithWorkload(hft.ServeRequests(requests, 50)),
			hft.WithClientLoad(hft.ClientLoad{Clients: 8, MeanGap: 250 * hft.Microsecond, Timeout: 50 * hft.Millisecond}),
			hft.WithSeed(11),
			hft.WithProtocol(hft.ProtocolNew),
			hft.WithLink(hft.ATM155()),
			hft.WithEpochLength(256),
			hft.WithOutputCommit(hft.OutputCommit{Window: 16, Adaptive: true}),
			hft.WithDetectTimeout(3*hft.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	ref, on := boot(), boot()
	// both does the same thing to the two clusters, the reference's share
	// with storms off.
	both := func(f func(c *hft.Cluster) error) {
		t.Helper()
		var err error
		hypervisor.WithoutStorms(func() { err = f(ref) })
		if err == nil {
			err = f(on)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	var blobs [][2][]byte // at every pause: the reference's, the storming cluster's
	var snap hft.Snapshot
	slice := func(d hft.Duration) {
		t.Helper()
		both(func(c *hft.Cluster) (err error) { snap, err = c.RunFor(d); return err })
		var pair [2][]byte
		for i, c := range []*hft.Cluster{ref, on} {
			var buf bytes.Buffer
			if err := c.Save(&buf); err != nil {
				t.Fatal(err)
			}
			pair[i] = buf.Bytes()
		}
		if !bytes.Equal(pair[0], pair[1]) {
			t.Fatalf("pause %d at %v: Save wrote other bytes with storms on (%d against %d)",
				len(blobs), on.Now(), len(pair[1]), len(pair[0]))
		}
		blobs = append(blobs, pair)
	}
	until := func(what string, pred func() bool) {
		t.Helper()
		for i := 0; !pred(); i++ {
			if snap.Done || i > 5000 {
				t.Fatalf("%s: never (done %v)", what, snap.Done)
			}
			slice(41*hft.Microsecond + hft.Duration(len(blobs)%7)*hft.Microsecond)
		}
	}
	until("a third answered", func() bool { return snap.NetAnswered >= requests/3 })
	both(func(c *hft.Cluster) error { c.FailPrimary(); return nil })
	failed := len(blobs)
	until("promotion", func() bool { return snap.Promoted })
	both(func(c *hft.Cluster) error { _, err := c.AddBackup(); return err })
	joined := len(blobs)
	until("two thirds answered", func() bool { return snap.NetAnswered >= 2*requests/3 })
	if snap.Nodes != 3 {
		t.Fatalf("%d nodes after AddBackup", snap.Nodes)
	}
	t.Logf("%d pauses; failstop after %d, AddBackup after %d", len(blobs), failed, joined)
	if len(blobs) < 500 {
		t.Fatalf("only %d pauses", len(blobs))
	}

	// Every blob restores, each arm's under the other arm's rule (a
	// Restore replays the run to the pause: under -short, every sixteenth
	// and those around the failstop and the join).
	for i, pair := range blobs {
		near := func(at int) bool { return i >= at-3 && i <= at+3 }
		if testing.Short() && i%16 != 0 && !near(failed) && !near(joined) {
			continue
		}
		restore := func(blob []byte) error {
			c, err := hft.Restore(bytes.NewReader(blob))
			if err != nil {
				return err
			}
			return c.Close()
		}
		if err := restore(pair[0]); err != nil {
			t.Fatalf("pause %d: the reference's blob does not restore with storms on: %v", i, err)
		}
		var err error
		hypervisor.WithoutStorms(func() { err = restore(pair[1]) })
		if err != nil {
			t.Fatalf("pause %d: the storming cluster's blob does not restore with storms off: %v", i, err)
		}
	}
}
