package hypervisor_test

import (
	"bytes"
	"fmt"
	"testing"

	hft "repro"
	"repro/internal/hypervisor"
)

// runAheadShapes is the grid the run-ahead differentials cover: the CPU,
// read and write guests at two epoch lengths, under the original protocol,
// the revised one and the revised one with output commit, over Ethernet
// and ATM, with one backup and with two.
func runAheadShapes() (names []string, shapes [][]hft.Option) {
	guests := []struct {
		name string
		w    hft.Workload
	}{{"cpu", hft.CPUIntensive(60_000)}, {"read", hft.DiskRead(6, 2048)}, {"write", hft.DiskWrite(6, 2048)}}
	protocols := []struct {
		name string
		opts []hft.Option
	}{
		{"old", []hft.Option{hft.WithProtocol(hft.ProtocolOld)}},
		{"new", []hft.Option{hft.WithProtocol(hft.ProtocolNew)}},
		{"new+oc", []hft.Option{hft.WithProtocol(hft.ProtocolNew), hft.WithOutputCommit(hft.OutputCommit{Window: 16})}},
	}
	links := []struct {
		name string
		m    hft.LinkParams
	}{{"ether", hft.Ethernet10()}, {"atm", hft.ATM155()}}
	for _, g := range guests {
		for _, el := range []uint64{1024, 32768} {
			for _, p := range protocols {
				for _, l := range links {
					for _, backups := range []int{1, 2} {
						names = append(names, fmt.Sprintf("%s/el%d/%s/%s/%db", g.name, el, p.name, l.name, backups))
						shapes = append(shapes, append([]hft.Option{hft.WithWorkload(g.w), hft.WithEpochLength(el),
							hft.WithLink(l.m), hft.WithBackups(backups), hft.WithDetectTimeout(2 * hft.Millisecond),
							hft.WithSeed(int64(len(names)))}, p.opts...))
					}
				}
			}
		}
	}
	return names, shapes
}

// aheadPair is one shape built twice: ref runs every call that can run
// the kernel under WithoutStorms (chunk by chunk, poll by poll), on as
// shipped.
type aheadPair struct {
	t       *testing.T
	ref, on *hft.Cluster
	pauses  int
}

func newAheadPair(t *testing.T, opts []hft.Option) *aheadPair {
	a := &aheadPair{t: t}
	for _, c := range []**hft.Cluster{&a.ref, &a.on} {
		var err error
		if *c, err = hft.NewCluster(opts...); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func (a *aheadPair) close() {
	a.ref.Close()
	a.on.Close()
}

// both does f to the two clusters, the reference's share with storms off,
// and returns what f reported for the shipped one.
func (a *aheadPair) both(f func(c *hft.Cluster) (hft.Snapshot, error)) hft.Snapshot {
	a.t.Helper()
	var err error
	hypervisor.WithoutStorms(func() { _, err = f(a.ref) })
	if err != nil {
		a.t.Fatal(err)
	}
	snap, err := f(a.on)
	if err != nil {
		a.t.Fatal(err)
	}
	return snap
}

// same holds the two clusters' Save bytes equal at a pause.
func (a *aheadPair) same(what string) {
	a.t.Helper()
	var blob [2][]byte
	for i, c := range []*hft.Cluster{a.ref, a.on} {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			a.t.Fatal(err)
		}
		blob[i] = buf.Bytes()
	}
	if !bytes.Equal(blob[0], blob[1]) {
		a.t.Fatalf("%s (pause %d, %v): Save wrote other bytes with chunks run ahead (%d against %d)",
			what, a.pauses, a.on.Now(), len(blob[1]), len(blob[0]))
	}
	a.pauses++
}

// TestRunAheadSaveAtPauses: a busy guest's chunks run ahead of their
// dispatches (busy.go) only where nothing can tell. Every shape of the
// grid runs twice, on a cluster with every fast path as shipped and on
// one under WithoutStorms, and Save must write the same bytes at every
// pause. Two kinds of pause:
//
//   - commits: RunUntil at each of the first 60 epoch commits. A stop
//     check stops the kernel inside another process's dispatch, which no
//     callback foretells; a build that ran ahead under it catches a
//     second backup with its machine ahead of its accounted chunks.
//   - slices: RunFor slices of 97 µs, with FailPrimary after the 7th and
//     AddBackup after the 30th, up to the 60th or the end of the run —
//     the RunFor bound stops the run ahead, the failstop and the
//     reintegration's transfer meet a machine that may have run ahead.
func TestRunAheadSaveAtPauses(t *testing.T) {
	names, shapes := runAheadShapes()
	t.Run("commits", func(t *testing.T) {
		for i, opts := range shapes {
			a := newAheadPair(t, opts)
			for n := uint64(1); n <= 60; n++ {
				snap := a.both(func(c *hft.Cluster) (hft.Snapshot, error) {
					return c.RunUntil(func(s hft.Snapshot) bool { return s.Commits >= n })
				})
				a.same(names[i])
				if snap.Done {
					break
				}
			}
			a.close()
		}
	})
	t.Run("slices", func(t *testing.T) {
		for i, opts := range shapes {
			a := newAheadPair(t, opts)
			for n := 1; n <= 60; n++ {
				snap := a.both(func(c *hft.Cluster) (hft.Snapshot, error) { return c.RunFor(97 * hft.Microsecond) })
				a.same(names[i])
				if snap.Done {
					break
				}
				switch n {
				case 7:
					a.both(func(c *hft.Cluster) (hft.Snapshot, error) { c.FailPrimary(); return c.Snapshot(), nil })
				case 30:
					a.both(func(c *hft.Cluster) (hft.Snapshot, error) { _, err := c.AddBackup(); return c.Snapshot(), err })
					a.same(names[i] + " after AddBackup")
				}
			}
			a.close()
		}
	})
}
