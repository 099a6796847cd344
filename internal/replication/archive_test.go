package replication

import (
	"fmt"
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/sim"
)

// TestEpochArchiveWindowCap: the archive never holds more than its
// window regardless of how many epochs are recorded.
func TestEpochArchiveWindowCap(t *testing.T) {
	a := new(Arena).archive()
	for e := uint64(0); e < 10_000; e++ {
		a.record(SyncEpoch{Epoch: e})
	}
	if a.len() > defaultArchiveWindow {
		t.Fatalf("archive holds %d epochs, window is %d", a.len(), defaultArchiveWindow)
	}
	if got := a.since(9_990); len(got) != 10 {
		t.Fatalf("since(9990) returned %d entries, want 10", len(got))
	}
}

// TestEpochArchiveTrim: trim drops exactly the acknowledged prefix.
func TestEpochArchiveTrim(t *testing.T) {
	a := new(Arena).archive()
	for e := uint64(0); e < 100; e++ {
		a.record(SyncEpoch{Epoch: e})
	}
	a.trim(90)
	if a.len() != 10 {
		t.Fatalf("after trim(90): %d entries, want 10", a.len())
	}
	if got := a.since(0); len(got) != 10 || got[0].Epoch != 90 {
		t.Fatalf("since(0) after trim = %d entries starting %d", len(got), got[0].Epoch)
	}
	// Trimming past the end empties but does not underflow.
	a.trim(1_000)
	if a.len() != 0 {
		t.Fatalf("after trim(1000): %d entries, want 0", a.len())
	}
	// Recording continues normally after a full trim.
	a.record(SyncEpoch{Epoch: 200})
	if a.len() != 1 {
		t.Fatalf("record after trim: %d entries, want 1", a.len())
	}
}

// TestEpochArchiveRecyclesLists: the archive copies each delivery into a
// list it owns and recycles the lists it trims, so a coordinator's
// record-and-trim cycle allocates nothing once warm — while what since
// handed out, which a resync message carries past later trims, keeps
// its values.
func TestEpochArchiveRecyclesLists(t *testing.T) {
	a := new(Arena).archive()
	buf := make([]hypervisor.Interrupt, 3)
	next := uint64(0)
	cycle := func() {
		for i := range buf {
			buf[i] = hypervisor.Interrupt{Line: uint(next), CapturedTOD: uint32(i)}
		}
		a.record(SyncEpoch{Epoch: next, Ints: buf})
		if next+1 > archiveResyncKeep {
			a.trim(next + 1 - archiveResyncKeep)
		}
		next++
	}
	for range 100 {
		cycle()
	}
	held := a.since(0)
	if len(held) != archiveResyncKeep || held[0].Epoch != 100-archiveResyncKeep {
		t.Fatalf("since(0) = %d epochs from %d, want %d from %d", len(held), held[0].Epoch, archiveResyncKeep, 100-archiveResyncKeep)
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("%v allocations per recorded and trimmed epoch, want 0", n)
	}
	for _, e := range held {
		if len(e.Ints) != len(buf) || e.Ints[0].Line != uint(e.Epoch) || e.Ints[2].CapturedTOD != 2 {
			t.Fatalf("epoch %d handed out by since changed under later records: %+v", e.Epoch, e.Ints)
		}
	}
}

// TestEpochArchiveRelease: a released archive is emptied, its interrupt
// lists cleared into the arena's, so the next replica rebuilt over it
// (TestReplicaArena) starts its archive from nothing.
func TestEpochArchiveRelease(t *testing.T) {
	var arena Arena
	a := arena.archive()
	for e := uint64(0); e < 40; e++ {
		a.record(SyncEpoch{Epoch: e, Ints: []hypervisor.Interrupt{{Line: uint(e) + 1}}})
	}
	lists := a.since(0)
	a.release()
	for l, ok := arena.lists.Get(); ok; l, ok = arena.lists.Get() {
		if l := l[:cap(l)]; len(l) > 0 && l[0].Line != 0 {
			t.Fatalf("a released list still holds %+v", l[0])
		}
	}
	b := a
	if b.len() != 0 || len(b.since(0)) != 0 {
		t.Fatalf("a new archive holds %d epochs", b.len())
	}
	b.record(SyncEpoch{Epoch: 500, Ints: []hypervisor.Interrupt{{Line: 9}}})
	if got := b.since(0); len(got) != 1 || got[0].Epoch != 500 || got[0].Ints[0].Line != 9 {
		t.Fatalf("since(0) after one record = %+v", got)
	}
	if lists[39].Ints[0].Line != 40 {
		t.Fatal("what since handed out changed on release")
	}
}

// TestReplicaArena: Release hands a replica back to its arena whole, and
// the next replica over the arena — in another role — is the same struct
// rebuilt: its epoch index and archive empty, its coordinator kept as a
// spare and rebuilt, peer records and all, when it next coordinates.
func TestReplicaArena(t *testing.T) {
	var arena Arena
	k := sim.NewKernel(1)
	peer := func() Peer {
		return Peer{TX: netsim.NewLink(k, netsim.Ethernet10("tx")), RX: netsim.NewLink(k, netsim.Ethernet10("rx"))}
	}
	downs := []Peer{peer(), peer()}
	first := NewReplicaIn(&arena, nil, nil, downs, Config{})
	coord, ps := first.coord, first.coord.s.peers[1]
	first.archive.record(SyncEpoch{Epoch: 3, Ints: []hypervisor.Interrupt{{Line: 1}}})
	first.rec(4).tme = 9
	first.Stats.Epochs = 7
	first.Release()
	first.Release() // a second Release hands nothing back twice

	second := NewReplicaIn(&arena, nil, []Peer{peer()}, nil, Config{})
	if second != first || second.coord != nil || second.spare != coord || second.index != 1 {
		t.Fatal("the second replica is not the first one's struct, rebuilt as a backup with the coordinator spare")
	}
	if len(second.pending) != 0 || second.archive.len() != 0 || second.Stats != (Stats{}) {
		t.Fatalf("the rebuilt replica holds %d pending records, %d archived epochs, stats %+v",
			len(second.pending), second.archive.len(), second.Stats)
	}
	if _, ok := arena.replicas.Get(); ok {
		t.Fatal("the arena kept a second replica")
	}
	second.downs = []Peer{peer()}
	c := second.newCoordinator()
	if c != coord || second.spare != nil || len(c.s.peers) != 1 || c.s.peers[0] != coord.s.peers[0] ||
		c.s.peers[:2][1] != ps || c.s.seq != 0 || len(c.pend) != 0 {
		t.Fatal("the coordinator was not rebuilt in the spare one, reusing its peer records")
	}
}

// TestEpochArchiveGrowsFromArena: the rings an archive outgrows stay in
// the arena, and another archive over it — a replica in a role no
// earlier one played — grows through them instead of allocating.
func TestEpochArchiveGrowsFromArena(t *testing.T) {
	var arena Arena
	big, other := arena.archive(), arena.archive()
	for e := uint64(0); e < 300; e++ {
		big.record(SyncEpoch{Epoch: e})
	}
	if len(big.ring) != 512 || len(arena.rings) != 6 {
		t.Fatalf("an archive of 300 epochs has a ring of %d and left %d outgrown rings, want 512 and 6 (8 to 256)",
			len(big.ring), len(arena.rings))
	}
	spares := map[*archived]bool{}
	for _, r := range arena.rings {
		spares[&r[0]] = true
	}
	for e := uint64(0); e < 200; e++ {
		other.record(SyncEpoch{Epoch: e})
	}
	if len(other.ring) != 256 || !spares[&other.ring[0]] || len(arena.rings) != 5 {
		t.Fatalf("the second archive grew to a ring of %d (an outgrown one: %v), leaving %d in the arena, want 256, true and 5",
			len(other.ring), spares[&other.ring[0]], len(arena.rings))
	}
	if got := other.since(0); len(got) != 200 || got[199].Epoch != 199 {
		t.Fatalf("since(0) over the reused ring = %d epochs", len(got))
	}
}

// TestArchiveBoundedOverManyEpochs runs a healthy replicated pair for
// thousands of epochs and checks that the coordinator's archive stays
// at the acknowledged-tail depth — memory no longer grows linearly in
// epochs — and that a backup with no downstream peers archives nothing.
func TestArchiveBoundedOverManyEpochs(t *testing.T) {
	for _, proto := range []Protocol{ProtocolOld, ProtocolNew} {
		t.Run(fmt.Sprint(proto), func(t *testing.T) {
			// Short epochs so the run spans thousands of them.
			cfg := platform.Config{}
			cfg.Hypervisor.EpochLength = 64
			c := newCluster(t, 1, cfg, proto, guestCPU(60_000))
			c.run(t, 400*sim.Second)
			if c.pri.Stats.Epochs < 2_000 {
				t.Fatalf("only %d epochs — not a multi-thousand-epoch run", c.pri.Stats.Epochs)
			}
			if got := c.pri.coord.archive.len(); got > archiveResyncKeep+2 {
				t.Errorf("%v: primary archive holds %d epochs after %d, want <= %d",
					proto, got, c.pri.Stats.Epochs, archiveResyncKeep+2)
			}
			if got := c.bak.archive.len(); got != 0 {
				t.Errorf("%v: downstream-less backup archived %d epochs, want 0", proto, got)
			}
			if c.bak.Stats.Divergences != 0 {
				t.Errorf("divergences = %d", c.bak.Stats.Divergences)
			}
		})
	}
}
