package session

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/guest"
	"repro/internal/obs"
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

// serviceRun runs o to completion and closes it. It returns the engine,
// the arena it ran over, its result and the latencies it reported before
// Close.
func serviceRun(t *testing.T, o Options) (*Engine, *arena, Result, obs.ServiceLatencies) {
	t.Helper()
	e := New(o)
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	res, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	sl, _ := e.ServiceLatencies()
	a := e.arena
	e.Close()
	return e, a, res, sl
}

// TestServiceArenaReuse: a service cluster's NIC and client population
// are served from the arena too. The third of three identical service
// clusters takes the arena the first two ran over and allocates 42–48 KB
// from New to Close (bound 56 KB): the structures around the recycled
// buffers, the traces its machines build and the completion records that
// carry the 400 requests, 32 bytes each. A cluster over a cold arena
// allocates ≈ 5.4 MB; a warm one allocated ≈ 1.1 MB while the NIC and
// the population built their tables afresh. (The second cluster reads
// ≈ 61 KB: its machines still build traces the first did not hand on.)
// Its reply transcript and latencies are the first one's.
func TestServiceArenaReuse(t *testing.T) {
	o := serveOpts(400)
	_, a, want, wantLat := serviceRun(t, o)
	if _, again, _, _ := serviceRun(t, o); again != a {
		t.Fatal("the second cluster did not borrow the first one's arena")
	}
	runtime.GC()
	runtime.GC()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	third := New(o)
	third.Boot()
	if third.arena != a {
		t.Fatal("the third cluster did not borrow the first two's arena")
	}
	if err := third.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	got, _ := third.Result()
	gotLat, _ := third.ServiceLatencies()
	third.Close()
	runtime.ReadMemStats(&after)
	const bound = 56 << 10
	used := after.TotalAlloc - before.TotalAlloc
	t.Logf("a service cluster over a recycled arena allocates %d bytes from New to Close", used)
	if used > bound {
		t.Errorf("a service cluster over a recycled arena allocates %d bytes from New to Close, bound %d", used, bound)
	}
	if got.NetReplies != want.NetReplies || got.Time != want.Time || gotLat != wantLat {
		t.Errorf("the cluster over recycled buffers replied %d bytes at %v with %+v, the first %d bytes at %v with %+v",
			len(got.NetReplies), got.Time, gotLat, len(want.NetReplies), want.Time, wantLat)
	}
}

// TestServiceArenaShrinks: a NIC and a client population built over an
// arena that served a larger population are sized by their own: the
// adapter refuses request ID requests+1, and the replies and latencies
// are byte for byte those of the same cluster before the larger one ran.
func TestServiceArenaShrinks(t *testing.T) {
	const requests = 16
	small := serveOpts(requests)
	_, a, want, wantLat := serviceRun(t, small)
	if _, big, _, _ := serviceRun(t, serveOpts(4*requests)); big != a {
		t.Fatal("the larger cluster did not borrow the first one's arena")
	}

	e := New(small)
	defer e.Close()
	e.Boot()
	if e.arena != a {
		t.Fatal("the third cluster did not borrow the arena the larger one returned")
	}
	if _, accepted := e.NIC().Ingress([]uint32{requests + 1, 1, 2}); accepted || e.NIC().Stats.Refused != 1 {
		t.Fatalf("request %d: accepted=%v, %d refused", requests+1, accepted, e.NIC().Stats.Refused)
	}
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	got, _ := e.Result()
	gotLat, _ := e.ServiceLatencies()
	if got.NetReplies != want.NetReplies || gotLat != wantLat {
		t.Errorf("over the larger population's arena: %d reply bytes with %+v, want %d with %+v",
			len(got.NetReplies), gotLat, len(want.NetReplies), wantLat)
	}
}

// TestServiceLatenciesAfterClose: ServiceLatencies after Close reports
// what it reported before, the output-commit quantiles included, even
// after another cluster took the arena and overwrote the tables it was
// measured from.
func TestServiceLatenciesAfterClose(t *testing.T) {
	o := serveOpts(64)
	o.OutputCommit = replication.OutputCommit{Enabled: true, Window: 4}
	e, a, _, want := serviceRun(t, o)
	if want.Answered != 64 || want.CommitP50 == 0 {
		t.Fatalf("before Close: %+v, want 64 answers and commit-latency samples", want)
	}
	if got, ok := e.ServiceLatencies(); !ok || got != want {
		t.Errorf("after Close: %+v (ok=%v), before: %+v", got, ok, want)
	}
	other := serveOpts(96)
	other.Seed = 2
	other.OutputCommit = replication.OutputCommit{Enabled: true, Window: 16}
	if _, next, _, _ := serviceRun(t, other); next != a {
		t.Fatal("the next cluster did not borrow the closed one's arena")
	}
	if got, ok := e.ServiceLatencies(); !ok || got != want {
		t.Errorf("after another cluster reused the arena: %+v (ok=%v), before Close: %+v", got, ok, want)
	}
}
