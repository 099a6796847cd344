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
// borrows the first one's arena, and its build allocates only what the
// arena does not recycle whole — the engine, kernel, platform and disks,
// the per-node device bindings: ≈ 3.6 KB for this replicated pair over
// the disk-write workload (bound 12 KB, for what the runtime allocates
// meanwhile: one run under the race detector at two Ps on a loaded host
// read 9.5 KB; ≈ 12 KB while the machines, hypervisors, links, replicas
// and processes were built new around recycled buffers), where a cold
// build allocates ≈ 179 KB (the guest boot's COW frames, the frame and
// page tables). Its run starts warm too — kernel events, link rings,
// epoch records, frames and write latches all come from the arena — and
// allocates ≈ 13.5 KB, mostly the traces the machines build (bound 24 KB;
// ≈ 17 KB before a dead machine's trace records went back to the arena,
// 28.7 KB while those lists started empty in every cluster). Close takes back every frame, whether or not
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
	build := after.TotalAlloc - before.TotalAlloc
	if build > 12<<10 {
		t.Errorf("a build over a recycled arena allocates %d bytes, bound %d", build, 12<<10)
	}
	runtime.ReadMemStats(&before)
	if err := second.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	run := after.TotalAlloc - before.TotalAlloc
	t.Logf("over a recycled arena the build allocates %d bytes, the run %d", build, run)
	if run > 24<<10 {
		t.Errorf("a run over a recycled arena allocates %d bytes, bound %d", run, 24<<10)
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
	fresh := sealTransfer(tr, snapshot.NewWriter(snapshot.TransferMagic))

	dirty := snapshot.NewWriter(snapshot.TransferMagic)
	for range 2 * len(fresh) {
		dirty.U8(0xA5)
	}
	e.arena.transfers.Put(dirty)
	w := e.transferWriter()
	if w != dirty {
		t.Fatal("the arena did not hand back the transfer writer it holds")
	}
	if got := sealTransfer(tr, w); !bytes.Equal(got, fresh) {
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
// clusters takes the arena the first two ran over and allocates ≈ 31 KB
// from New to Close (bound 44 KB; up to 36.7 KB when the package's tests
// run again in one process): what the arena does not recycle whole,
// the traces its machines build and the completion records that carry
// the 400 requests, 32 bytes each. It read 42–48 KB while the machines,
// hypervisors, links, replicas, processes and random stream were built
// new around recycled buffers. A cluster over a cold arena allocates
// ≈ 5.4 MB; a warm one allocated ≈ 1.1 MB while the NIC and the
// population built their tables afresh. (The second cluster reads more:
// its machines still build traces the first did not hand on.)
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
	const bound = 44 << 10
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

// TestClosedEngineSurvivesReuse: what a closed engine reports does not
// move when another cluster — of a different shape — takes its arena and
// rebuilds its hypervisors, replicas and links: Snapshot, Result,
// ServiceLatencies, Now, Done and the NIC's and client population's
// counters read after Close as they did before it.
func TestClosedEngineSurvivesReuse(t *testing.T) {
	o := serveOpts(64)
	o.Backups = 2
	e := New(o)
	failNodeAt(t, e, 0, 20*sim.Millisecond)
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	type view struct {
		snap  obs.Snapshot
		res   Result
		err   error
		lat   obs.ServiceLatencies
		latOK bool
		now   sim.Time
		done  bool
		nic   any
		cs    any
	}
	read := func() view {
		v := view{snap: e.Snapshot(), now: e.Now(), done: e.Done(), nic: e.NIC().Stats, cs: e.Clients().Stats()}
		v.res, v.err = e.Result()
		v.lat, v.latOK = e.ServiceLatencies()
		return v
	}
	check := func(when string, want view) {
		t.Helper()
		got := read()
		if got.snap != want.snap {
			t.Errorf("%s: Snapshot %+v, before Close %+v", when, got.snap, want.snap)
		}
		if got.res != want.res || got.err != want.err {
			t.Errorf("%s: Result moved (%v)", when, got.err)
		}
		if got.snap, got.res = want.snap, want.res; got != want {
			t.Errorf("%s: latencies, clock or counters %+v, before Close %+v", when, got, want)
		}
	}
	want := read()
	if !want.snap.Promoted || want.snap.Epochs == 0 || want.err != nil || !want.latOK {
		t.Fatalf("before Close: %+v", want)
	}
	a := e.arena
	e.Close()
	check("after Close", want)

	other := New(Options{Seed: 3, Program: WorkloadProgram(guest.DiskWrite(6, 4096)), EpochLength: 512, Backups: 3})
	other.Boot()
	if other.arena != a {
		t.Fatal("the second cluster did not borrow the closed one's arena")
	}
	if err := other.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	check("while another cluster runs over its arena", want)
	other.Close()
	check("after another cluster ran over its arena and closed", want)
}
