package session

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/guest"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestArenaReuse: a cluster's buffers outlive it on the shelf. After
// Close and two garbage collections — which empty a sync.Pool, its
// victim cache included — the next cluster built on the same goroutine
// borrows the first one's arena, and its build allocates only the small
// structures around the recycled buffers: ≈ 12 KB for this replicated
// pair over the disk-write workload (bound 24 KB, for what the runtime
// allocates meanwhile), where a cold build allocates ≈ 179 KB (the
// guest boot's COW frames, the frame and page tables). Its run starts
// warm too — kernel events, link rings, epoch records, frames and write
// latches all come from the arena — and allocates ≈ 17 KB, the traces
// the machines build (bound 24 KB; 28.7 KB while those lists started
// empty in every cluster). Close takes back every frame, whether or not
// its last reference was released.
func TestArenaReuse(t *testing.T) {
	o := Options{Seed: 1, Program: WorkloadProgram(guest.DiskWrite(4, 2048)), EpochLength: 1024}
	first := New(o)
	if err := first.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	a := first.arena
	first.Close()
	runtime.GC()
	runtime.GC()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second := New(o)
	second.Boot()
	runtime.ReadMemStats(&after)
	defer second.Close()
	if second.arena != a {
		t.Fatal("the second cluster did not borrow the first one's arena")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 24<<10 {
		t.Errorf("a build over a recycled arena allocates %d bytes, bound %d", got, 24<<10)
	}
	runtime.ReadMemStats(&before)
	if err := second.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 24<<10 {
		t.Errorf("a run over a recycled arena allocates %d bytes, bound %d", got, 24<<10)
	}
	want, _ := first.Result()
	if got, _ := second.Result(); got.Time != want.Time || got.Guest != want.Guest || got.Console != want.Console {
		t.Errorf("the cluster over recycled buffers finished at %v with %+v, the first at %v with %+v",
			got.Time, got.Guest, want.Time, want.Guest)
	}
	second.Close()
	if n := a.replication.Outstanding(); n != 0 {
		t.Errorf("%d frames of the arena are outstanding after Close", n)
	}
}

// TestTransferRecycledWriter: a transfer encoded into a recycled writer —
// one whose buffer last held a longer blob — is byte-identical to one
// encoded into a fresh writer.
func TestTransferRecycledWriter(t *testing.T) {
	e := New(Options{
		Seed:        7,
		Program:     WorkloadProgram(guest.DiskWrite(6, 8192)),
		EpochLength: 2048,
		Protocol:    replication.ProtocolNew,
	})
	defer e.Close()
	if err := e.RunFor(6 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddBackup(AddBackupConfig{}); err != nil {
		t.Fatal(err)
	}
	tr := e.captureTransfer(e.lastNode)
	fresh := tr.encode(snapshot.NewWriter(snapshot.TransferMagic))

	dirty := snapshot.NewWriter(snapshot.TransferMagic)
	for range 2 * len(fresh) {
		dirty.U8(0xA5)
	}
	e.arena.transfers.Put(dirty)
	w := e.transferWriter()
	if w != dirty {
		t.Fatal("the arena did not hand back the transfer writer it holds")
	}
	if got := tr.encode(w); !bytes.Equal(got, fresh) {
		t.Errorf("a transfer encoded into a recycled writer (%d bytes) differs from a fresh one (%d bytes)", len(got), len(fresh))
	}
}
