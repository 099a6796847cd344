package session_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	hft "repro"
	"repro/internal/chaos"
	"repro/internal/session"
)

// shapeRun is what one cluster of a chaos shape leaves behind: its Save
// blob at a fixed commit, its event stream and its Result.
type shapeRun struct {
	blob   []byte
	events []string
	res    hft.Result
}

// runShape runs shape w under a schedule that exercises what a cluster's
// structs hold: the Save at commit 12, then a primary failstop (a
// promotion rebuilds a coordinator), a reintegration (a late joiner's
// machine, hypervisor, links and transfer) and the run to completion,
// under the output-commit window when window > 0.
func runShape(t *testing.T, w chaos.Workload, backups, window int) shapeRun {
	t.Helper()
	s := chaos.Schedule{Seed: 11, Workload: w.Name, Epoch: 1024, Protocol: hft.ProtocolNew, Backups: backups, Window: window}
	c, err := hft.NewCluster(s.ClusterOptions(w)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var run shapeRun
	c.Observe(func(ev hft.Event) { run.events = append(run.events, ev.String()) })
	if _, err := c.RunUntil(func(s hft.Snapshot) bool { return s.Commits >= 12 }); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("%s: Save: %v", w.Name, err)
	}
	run.blob = buf.Bytes()
	c.FailPrimary()
	if _, err := c.AddBackup(); err != nil && !c.Done() {
		t.Fatalf("%s: AddBackup: %v", w.Name, err)
	}
	if run.res, err = c.Wait(context.Background()); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return run
}

// TestWarmArenaInvisible: a cluster rebuilt in the structs of another is
// the cluster built fresh. For each of chaos's six shapes, a cluster over
// a new arena and one over an arena that last served a different shape
// with three backups save the same bytes at a fixed commit, publish the
// same events and finish with the same Result — so no recycled machine,
// hypervisor, link, replica, process or random stream carries a field
// over.
func TestWarmArenaInvisible(t *testing.T) {
	shapes := chaos.Workloads()
	for i, w := range shapes {
		window := 2 * (i % 2) // every other shape under the output-commit window
		restore := session.DrainArenas()
		fresh := runShape(t, w, 1, window)
		other := shapes[(i+1)%len(shapes)]
		runShape(t, other, 3, 8-window)
		if n := session.IdleArenas(); n != 1 {
			t.Fatalf("%d idle arenas, want the one the two clusters shared", n)
		}
		warm := runShape(t, w, 1, window)
		restore()
		if !bytes.Equal(warm.blob, fresh.blob) {
			t.Errorf("%s: over an arena %s with 3 backups used, Save writes %d bytes, over a new one %d, not the same",
				w.Name, other.Name, len(warm.blob), len(fresh.blob))
		}
		if !slices.Equal(warm.events, fresh.events) {
			t.Errorf("%s: over an arena %s with 3 backups used, %d events, over a new one %d, not the same",
				w.Name, other.Name, len(warm.events), len(fresh.events))
		}
		if warm.res != fresh.res {
			t.Errorf("%s: over an arena %s with 3 backups used, Result %+v, over a new one %+v",
				w.Name, other.Name, warm.res, fresh.res)
		}
	}
}
