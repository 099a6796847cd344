package hypervisor_test

// The poll storm (storm.go) seen from above: replica sets whose guests
// idle on NIC status — the storm's case — run twice over, one set with
// hypervisor.WithoutStorms around every advance (no promise, no poll
// retired ahead: the reference), one as shipped, both advanced in
// RunUntil slices short enough that pauses land where a batch would have
// been. At every pause every node of the two must agree on every byte of
// its machine's, its hypervisor's and its replica's encoded state, and
// the two kernels on the time.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// stormSet is one replica set of n nodes on its own kernel.
type stormSet struct {
	k       *sim.Kernel
	cluster *platform.Cluster
	reps    []*replication.Replica
	commits uint64 // epochs committed by whoever coordinates
}

// newStormSet boots n replicas of the serve guest under output commit
// (the svc_failover configuration of the polled pair) or, with lockstep,
// under the original protocol without resident emulation (svc_ladder's:
// a poll costs the full 15.12 µs there).
func newStormSet(t *testing.T, n int, lockstep bool) *stormSet {
	t.Helper()
	s := &stormSet{k: sim.NewKernel(1)}
	t.Cleanup(s.k.Shutdown)
	rc := replication.Config{
		Protocol:      replication.ProtocolNew,
		OutputCommit:  replication.OutputCommit{Enabled: true, Window: 16, Adaptive: true},
		DetectTimeout: 3 * sim.Millisecond,
	}
	hc := hypervisor.Config{EpochLength: 256, AdaptiveBoundary: true, ResidentEmulation: true}
	if lockstep {
		rc = replication.Config{Protocol: replication.ProtocolOld, DetectTimeout: 3 * sim.Millisecond}
		hc = hypervisor.Config{EpochLength: 256}
	}
	s.cluster, s.reps = wireReplicas(s.k, n, machine.Config{}, hc, rc, 1000) // more requests than will ever come
	for i, r := range s.reps {
		r.Observer = func(ev obs.Event) {
			if ev.Kind == obs.EventEpochCommitted {
				s.commits++
			}
		}
		if i > 0 {
			r.StartReceivers(s.k)
		}
		s.k.Start(fmt.Sprintf("node%d", i), r.Run)
	}
	return s
}

// wireReplicas builds n nodes on k with the serve guest booted, waiting
// for the given number of requests, and one replica per node wired to
// every other as the session wires them: higher-priority nodes upstream,
// lower-priority ones downstream.
func wireReplicas(k *sim.Kernel, n int, mc machine.Config, hc hypervisor.Config, rc replication.Config, requests uint32) (*platform.Cluster, []*replication.Replica) {
	mc.MemBytes = session.GuestMemBytes
	c := platform.NewCluster(k, platform.Config{
		Machine:     mc,
		Hypervisor:  hc,
		NICRequests: int(requests),
		Link:        netsim.ATM155(""),
	}, n)
	prog := guest.Program()
	for _, nd := range c.Nodes {
		nd.HV.Boot(prog.Origin, prog.Words, 0)
		guest.Configure(nd.M, guest.ServeRequests(requests, 50))
	}
	var reps []*replication.Replica
	for i := range c.Nodes {
		var ups, downs []replication.Peer
		for j := range c.Nodes {
			if j == i {
				continue
			}
			tx, rx := c.Channel(i, j)
			if j < i {
				ups = append(ups, replication.Peer{TX: tx, RX: rx})
			} else {
				downs = append(downs, replication.Peer{TX: tx, RX: rx})
			}
		}
		reps = append(reps, replication.NewReplica(c.Nodes[i].HV, ups, downs, rc))
	}
	return c, reps
}

// encode is every node's state, layer by layer.
func (s *stormSet) encode() []byte {
	w := snapshot.NewWriter(snapshot.TransferMagic)
	for i, nd := range s.cluster.Nodes {
		ms := nd.M.CaptureState()
		ms.Code(w.Codec())
		hs := nd.HV.CaptureState()
		hs.Code(w.Codec())
		s.reps[i].EncodeState(w)
	}
	return w.Finish()
}

func (s *stormSet) storms() (st hypervisor.StormStats) {
	for _, nd := range s.cluster.Nodes {
		ns := nd.HV.StormStats()
		st.Tries += ns.Tries
		st.Batches += ns.Batches
		st.Polls += ns.Polls
	}
	return st
}

// stormPair is the two arms in lockstep.
type stormPair struct {
	t       *testing.T
	ref, on *stormSet
	pauses  int
}

func newStormPair(t *testing.T, n int, lockstep bool) *stormPair {
	return &stormPair{t: t, ref: newStormSet(t, n, lockstep), on: newStormSet(t, n, lockstep)}
}

// each does the same thing to both arms, between advances.
func (p *stormPair) each(f func(s *stormSet)) {
	f(p.ref)
	f(p.on)
}

// advance runs both arms d further and compares them.
func (p *stormPair) advance(d sim.Time) {
	p.t.Helper()
	hypervisor.WithoutStorms(func() { p.ref.k.RunUntil(p.ref.k.Now() + d) })
	p.on.k.RunUntil(p.on.k.Now() + d)
	p.pauses++
	if a, b := p.ref.k.Now(), p.on.k.Now(); a != b {
		p.t.Fatalf("pause %d: the reference stands at %d, the storming set at %d", p.pauses, a, b)
	}
	if a, b := p.ref.encode(), p.on.encode(); !bytes.Equal(a, b) {
		p.t.Fatalf("pause %d at %d: encoded state differs from the reference's (%d against %d bytes; %d commits against %d; storms %+v)",
			p.pauses, p.on.k.Now(), len(b), len(a), p.on.commits, p.ref.commits, p.on.storms())
	}
}

// until advances in slices of d until the reference has committed n
// epochs.
func (p *stormPair) until(d sim.Time, n uint64) {
	p.t.Helper()
	for p.ref.commits < n {
		p.advance(d)
	}
}

// engaged fails the test unless the storming arm retired polls ahead (or
// must not have) and the reference never did.
func (p *stormPair) engaged(want bool) {
	p.t.Helper()
	if st := p.ref.storms(); st != (hypervisor.StormStats{}) {
		p.t.Errorf("the reference arm stormed: %+v", st)
	}
	st := p.on.storms()
	p.t.Logf("%d pauses, %d commits, storms %+v", p.pauses, p.on.commits, st)
	if st.Tries == 0 || (st.Batches > 0) != want {
		p.t.Errorf("storms %+v: batches wanted: %v", st, want)
	}
}

// TestStormTimeSliced: the polled pair and a polled triple over 200
// epochs in slices of 37 µs and 101 µs — pauses land mid-batch: a poll is
// 1.04 µs here — and over 60 epochs in slices of 1.013 µs, under one
// poll, where no batch fits a slice and every poll is the promise's quiet
// step; then the lock-step pair, whose poll costs 15.16 µs.
func TestStormTimeSliced(t *testing.T) {
	for _, c := range []struct {
		nodes    int
		slice    sim.Time
		epochs   uint64
		lockstep bool
		batches  bool
	}{
		{2, 37 * sim.Microsecond, 200, false, true},
		{2, 101 * sim.Microsecond, 200, false, true},
		{2, 1013 * sim.Nanosecond, 60, false, false},
		{3, 37 * sim.Microsecond, 200, false, true},
		{3, 101 * sim.Microsecond, 200, false, true},
		{3, 1013 * sim.Nanosecond, 60, false, false},
		{2, 101 * sim.Microsecond, 120, true, true},
	} {
		t.Run(fmt.Sprintf("%d nodes/%v/lockstep=%v", c.nodes, c.slice, c.lockstep), func(t *testing.T) {
			p := newStormPair(t, c.nodes, c.lockstep)
			p.until(c.slice, c.epochs)
			p.engaged(c.batches)
		})
	}
}

// TestStormDisturbed: what can reach a replica mid-storm. Request frames
// arrive on the shared adapter — from a callback in the middle of a slice
// and from the clock's holder at a pause — raising the primary's line;
// each machine is captured and restored at a pause (the memo and the
// storm go with the derived state and must find their way back); and the
// primary is failstopped at a pause, so the backup storms on alone,
// detects, promotes, and serves.
func TestStormDisturbed(t *testing.T) {
	p := newStormPair(t, 2, false)
	const slice = 53 * sim.Microsecond
	p.until(slice, 20)

	frame := uint32(0)
	ingress := func(s *stormSet) {
		s.cluster.NIC.Ingress([]uint32{frame, 0xfeed})
	}
	for i := 0; i < 6; i++ {
		frame++
		p.each(func(s *stormSet) { s.k.After(slice/2+sim.Time(i)*777, func() { ingress(s) }) })
		p.until(slice, p.ref.commits+5)
		frame++
		p.each(ingress)
		p.until(slice, p.ref.commits+5)
	}
	if got := p.on.cluster.NIC.Stats.Requests; got != 12 {
		t.Fatalf("%d requests reached the adapter, want 12", got)
	}

	for i := range p.on.cluster.Nodes {
		p.each(func(s *stormSet) {
			m := s.cluster.Nodes[i].M
			if err := m.RestoreState(m.CaptureState()); err != nil {
				t.Fatal(err)
			}
		})
		p.until(slice, p.ref.commits+5)
	}
	mid := p.on.storms()

	p.each(func(s *stormSet) { s.reps[0].Failstop() })
	p.until(slice, p.ref.commits+40)
	if !p.on.reps[1].Promoted() || !p.ref.reps[1].Promoted() {
		t.Fatal("the backup did not promote")
	}
	p.engaged(true)
	if end := p.on.storms(); end.Batches <= mid.Batches {
		t.Errorf("no batch after the failstop: %+v then, %+v now", mid, end)
	}
}
