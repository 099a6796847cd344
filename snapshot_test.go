package hft

// Tests for the snapshot/state-transfer subsystem: checkpoint
// round-trips pinned bit-identical against uninterrupted runs, backup
// reintegration through failover chains, version/corruption/tamper
// rejection, and the RunUntil boundary-sampling contract.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/snapshot"
)

// finishAndCompare drives both clusters to completion and asserts
// identical terminal results and snapshots.
func finishAndCompare(t *testing.T, name string, a, b *Cluster) {
	t.Helper()
	ra, errA := a.Wait(context.Background())
	rb, errB := b.Wait(context.Background())
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s: wait errors differ: %v vs %v", name, errA, errB)
	}
	if errA != nil {
		t.Fatalf("%s: wait: %v", name, errA)
	}
	if ra != rb {
		t.Fatalf("%s: results differ:\n  a: %+v\n  b: %+v", name, ra, rb)
	}
	if sa, sb := a.Snapshot(), b.Snapshot(); sa != sb {
		t.Fatalf("%s: final snapshots differ:\n  a: %+v\n  b: %+v", name, sa, sb)
	}
}

// TestSaveRestoreRoundTrip checkpoints a session mid-run — after live
// perturbations — and pins the restored session's remaining execution
// bit-identical to (a) the original continuing past its Save and (b) a
// fresh run that never snapshotted, for both protocols and both links.
func TestSaveRestoreRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		proto Protocol
		link  LinkParams
	}{
		{"old-ethernet", ProtocolOld, Ethernet10()},
		{"new-ethernet", ProtocolNew, Ethernet10()},
		{"old-atm", ProtocolOld, ATM155()},
		{"new-atm", ProtocolNew, ATM155()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Cluster {
				c, err := NewCluster(
					WithWorkload(DiskWrite(4, 8192)),
					WithEpochLength(4096),
					WithProtocol(tc.proto),
					WithLink(tc.link),
					WithDiskLatency(800*Microsecond, 900*Microsecond),
				)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			drive := func(c *Cluster) {
				if _, err := c.RunFor(8 * Millisecond); err != nil {
					t.Fatal(err)
				}
				if err := c.SetLinkQuality(LinkQuality{BitsPerSecond: 4_000_000}); err != nil {
					t.Fatal(err)
				}
				if _, err := c.RunUntil(func(s Snapshot) bool { return s.Epochs >= 40 }); err != nil {
					t.Fatal(err)
				}
				c.FailPrimary()
			}

			orig := mk()
			defer orig.Close()
			drive(orig)

			var buf bytes.Buffer
			if err := orig.Save(&buf); err != nil {
				t.Fatalf("save: %v", err)
			}

			restored, err := Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			defer restored.Close()
			finishAndCompare(t, "restored-vs-original", orig, restored)

			fresh := mk()
			defer fresh.Close()
			drive(fresh)
			finishAndCompare(t, "fresh-vs-original", orig, fresh)
		})
	}
}

// TestSaveRestoreNoOpRunFor: a RunFor that cannot advance (d <= 0) must
// leave the replay coordinate alone. The session is paused on a commit
// boundary — mid-instant, with the transmit process and that instant's
// other events still queued behind it — or at completion, so a time
// pause recorded there names a different kernel state (the whole instant
// for d = 0, an earlier one for d < 0) and the checkpoint fails Restore's
// verification.
func TestSaveRestoreNoOpRunFor(t *testing.T) {
	for _, tc := range []struct {
		d       Duration
		commits uint64
	}{
		{0, 5},
		{0, 15},
		{-5 * Millisecond, 5},
		{0, 1 << 30}, // never reached: paused at completion
	} {
		orig, err := NewCluster(
			WithWorkload(ServeRequests(24, 50)),
			WithClientLoad(ClientLoad{Clients: 8, MeanGap: 100 * Microsecond, Timeout: 50 * Millisecond}),
			WithEpochLength(1024),
			WithBackups(2),
			WithOutputCommit(OutputCommit{Window: 4, Adaptive: true}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer orig.Close()
		paused, err := orig.RunUntil(func(s Snapshot) bool { return s.Commits >= tc.commits })
		if err != nil {
			t.Fatal(err)
		}
		if s, err := orig.RunFor(tc.d); err != nil || s != paused {
			t.Fatalf("RunFor(%v) at commit %d moved the session (err %v):\n  before: %+v\n  after:  %+v",
				tc.d, paused.Commits, err, paused, s)
		}
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		restored, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Errorf("restore after RunFor(%v) at commit %d (done=%v): %v", tc.d, paused.Commits, paused.Done, err)
			continue
		}
		defer restored.Close()
		finishAndCompare(t, "restored-vs-original", orig, restored)
	}
}

// TestSaveRestoreAddBackupJournal checkpoints AFTER a full
// fail -> promote -> reintegrate chain; the restored session must
// replay the reintegration (including the state transfer) and continue
// bit-identically.
func TestSaveRestoreAddBackupJournal(t *testing.T) {
	mk := func() *Cluster {
		c, err := NewCluster(
			WithWorkload(DiskWrite(5, 8192)),
			WithDiskLatency(800*Microsecond, 900*Microsecond),
			WithProtocol(ProtocolNew),
		)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	drive := func(c *Cluster) {
		if _, err := c.RunFor(6 * Millisecond); err != nil {
			t.Fatal(err)
		}
		c.FailPrimary()
		if _, err := c.RunUntil(func(s Snapshot) bool { return s.Promoted }); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddBackup(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunFor(4 * Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	orig := mk()
	defer orig.Close()
	drive(orig)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer restored.Close()
	finishAndCompare(t, "restored-vs-original", orig, restored)
}

// TestSaveRestoreCompleted checkpoints a finished session; the restored
// session must report the identical terminal result.
func TestSaveRestoreCompleted(t *testing.T) {
	c, err := NewCluster(WithWorkload(CPUIntensive(5000)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer restored.Close()
	res2, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res != res2 {
		t.Fatalf("results differ:\n  original: %+v\n  restored: %+v", res, res2)
	}
}

// saveBlob produces a checkpoint of a small mid-run session: the CPU
// workload, or the session opts configure.
func saveBlob(t *testing.T, opts ...Option) []byte {
	t.Helper()
	if len(opts) == 0 {
		opts = []Option{WithWorkload(CPUIntensive(20000))}
	}
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunFor(5 * Millisecond); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes blob's checksum trailer over its body as it now
// stands, so that an edit made on purpose reaches the gate, or the
// decoder, behind the checksum.
func reseal(blob []byte) []byte {
	body := blob[:len(blob)-8]
	binary.LittleEndian.PutUint64(blob[len(body):], snapshot.MixBytes(snapshot.HashBasis, body))
	return blob
}

// TestRestoreVersionMismatch pins the version gate: a snapshot from a
// different format version is rejected with ErrSnapshotVersion.
func TestRestoreVersionMismatch(t *testing.T) {
	blob := saveBlob(t)
	// The version word sits right after the 8-byte magic.
	blob[8]++
	_, err := Restore(bytes.NewReader(reseal(blob)))
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("restore of future-version snapshot: got %v, want ErrSnapshotVersion", err)
	}
}

// TestRestoreCorrupt pins the integrity gate: flipped bytes fail the
// checksum before any state is reconstructed.
func TestRestoreCorrupt(t *testing.T) {
	blob := saveBlob(t)
	blob[len(blob)/2] ^= 0xFF
	_, err := Restore(bytes.NewReader(blob))
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("restore of corrupted snapshot: got %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := Restore(bytes.NewReader(blob[:16])); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("restore of truncated snapshot: got %v, want ErrSnapshotCorrupt", err)
	}
}

// TestRestoreRecyclesBlob: Restore reads a checkpoint into a recycled
// buffer and gives it back on every return path, so nothing a restored
// cluster keeps may alias it. Restoring B over the buffer A was read
// into must leave A's cluster saving A byte for byte; a reader that
// cannot say how much is left still restores; a corrupt blob still fails
// as corrupt, and the restore after it still succeeds.
func TestRestoreRecyclesBlob(t *testing.T) {
	a := saveBlob(t)
	b := saveBlob(t, WithWorkload(DiskWrite(4, 2048)), WithBackups(2), WithTerminal(TerminalInput{At: Millisecond, Data: "hi"}))
	if len(a) == len(b) {
		t.Fatalf("blobs of one size (%d bytes): pick configurations that differ", len(a))
	}
	restore := func(r io.Reader) *Cluster {
		t.Helper()
		c, err := Restore(r)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	resaves := func(name string, c *Cluster, want []byte) {
		t.Helper()
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s re-saves %d bytes, want its %d-byte checkpoint", name, buf.Len(), len(want))
		}
	}

	ca := restore(bytes.NewReader(a))
	cb := restore(bytes.NewReader(b))
	resaves("A", ca, a)
	resaves("B", cb, b)
	resaves("A from one-byte reads", restore(iotest.OneByteReader(bytes.NewReader(a))), a)

	bad := bytes.Clone(b)
	bad[len(bad)/2] ^= 0xFF
	if _, err := Restore(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("restore of a corrupt blob: got %v, want ErrSnapshotCorrupt", err)
	}
	resaves("B after a corrupt blob", restore(bytes.NewReader(b)), b)
}

// TestRestoreRejectsInvalidConfig: Restore validates a checkpoint's
// configuration as NewCluster validates its options, so a sealed blob
// whose configuration NewCluster would reject is ErrSnapshotCorrupt,
// never a cluster that panics on its first run. Each case finds its
// field where two checkpoints that differ only in it first differ (in
// the field's low byte) and writes a bad value there.
func TestRestoreRejectsInvalidConfig(t *testing.T) {
	base := []Option{WithWorkload(DiskWrite(4, 2048)), WithBackups(2), WithOutputCommit(OutputCommit{Window: 2})}
	eth := Ethernet10()
	faster := eth
	faster.BitsPerSecond++
	cases := []struct {
		name     string
		from, to Option // the saved setting, and one that differs from it in the field's low byte
		width    int    // the field's encoded width in bytes
		bad      uint64
	}{
		{"epoch length 0", WithEpochLength(4096), WithEpochLength(4097), 8, 0},
		{"epoch length 2^40", WithEpochLength(4096), WithEpochLength(4097), 8, 1 << 40},
		{"backups 0", WithBackups(2), WithBackups(3), 8, 0},
		{"protocol 9", WithProtocol(ProtocolOld), WithProtocol(ProtocolNew), 1, 9},
		{"link bandwidth 0", WithLink(eth), WithLink(faster), 8, 0},
		{"output-commit window 65", WithOutputCommit(OutputCommit{Window: 2}), WithOutputCommit(OutputCommit{Window: 3}), 8, 65},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := saveBlob(t, append(base, tc.from)...)
			restoreRejects(t, patchFirstDiff(blob, saveBlob(t, append(base, tc.to)...), tc.width, tc.bad))
		})
	}
}

// TestRestoreRejectsInvalidJournalLink: a journalled AddBackup's link
// passes AddBackupLink's check on restore, as the configured link
// passes WithLink's.
func TestRestoreRejectsInvalidJournalLink(t *testing.T) {
	eth := Ethernet10()
	save := func(bps int64) []byte {
		link := eth
		link.BitsPerSecond = bps
		c, err := NewCluster(WithWorkload(CPUIntensive(20000)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.AddBackup(AddBackupLink(link)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	restoreRejects(t, patchFirstDiff(save(eth.BitsPerSecond), save(eth.BitsPerSecond+1), 8, 1<<63))
}

// patchFirstDiff writes bad, width bytes of it little-endian, where blob
// and other first differ, and re-seals blob.
func patchFirstDiff(blob, other []byte, width int, bad uint64) []byte {
	off := 0
	for blob[off] == other[off] {
		off++
	}
	var field [8]byte
	binary.LittleEndian.PutUint64(field[:], bad)
	copy(blob[off:off+width], field[:width])
	return reseal(blob)
}

// restoreRejects asserts that Restore refuses blob as ErrSnapshotCorrupt,
// without panicking; a cluster it returns anyway is run briefly, since
// that is where a bad configuration used to panic.
func restoreRejects(t *testing.T, blob []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Restore panicked: %v", r)
		}
	}()
	c, err := Restore(bytes.NewReader(blob))
	if err == nil {
		c.RunFor(Millisecond)
		c.Close()
	}
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("Restore = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestRestoreAnyByteCorrupt: the checksum covers every byte of a real
// checkpoint. Changing any single byte of it (to a value that varies
// from byte to byte) is ErrSnapshotCorrupt — or, in the version word,
// ErrSnapshotVersion, the gate before the checksum. The word hash
// guarantees it (snapshot.Mix): a blob that differs from a sealed one in
// one word never matches its trailer.
func TestRestoreAnyByteCorrupt(t *testing.T) {
	blob := saveBlob(t)
	for i := range blob {
		x := byte(1 + i*131%255)
		blob[i] ^= x
		_, err := Restore(bytes.NewReader(blob))
		blob[i] ^= x
		want := ErrSnapshotCorrupt
		if i >= 8 && i < 12 {
			want = ErrSnapshotVersion
		}
		if !errors.Is(err, want) {
			t.Fatalf("byte %d of %d changed: got %v, want %v", i, len(blob), err, want)
		}
	}
}

// TestRestoreVerifyCatchesTamper pins the post-replay verification: a
// snapshot whose embedded state capture disagrees with the replayed
// run (here: a resealed tamper deep in the capture section) is
// rejected, not silently resumed.
func TestRestoreVerifyCatchesTamper(t *testing.T) {
	blob := saveBlob(t)
	// Flip a byte near the end of the blob — inside the last capture
	// section's payload — and reseal so the checksum gate passes.
	blob[len(blob)-24] ^= 0x01
	tampered := reseal(blob)
	_, err := Restore(bytes.NewReader(tampered))
	if err == nil {
		t.Fatal("restore of tampered snapshot succeeded")
	}
	if !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("restore of tampered snapshot: got %v, want state-divergence error", err)
	}
}

// TestAddBackupHealthy reintegrates a third replica into a HEALTHY
// running pair: the joiner's digest checks against the live stream
// must hold from its first epoch (a mismatch panics the divergence
// tripwire), and the workload result is unchanged.
func TestAddBackupHealthy(t *testing.T) {
	w := DiskWrite(4, 8192)
	bare, _ := runScenario(t, WithWorkload(w), WithDiskLatency(800*Microsecond, 900*Microsecond), Bare())
	for _, proto := range []Protocol{ProtocolOld, ProtocolNew} {
		c, err := NewCluster(
			WithWorkload(w),
			WithProtocol(proto),
			WithDiskLatency(800*Microsecond, 900*Microsecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunFor(6 * Millisecond); err != nil {
			t.Fatal(err)
		}
		n, err := c.AddBackup()
		if err != nil {
			t.Fatalf("proto %v: AddBackup: %v", proto, err)
		}
		if n != 2 {
			t.Fatalf("proto %v: joined as node %d, want 2", proto, n)
		}
		res, err := c.Wait(context.Background())
		if err != nil {
			t.Fatalf("proto %v: %v", proto, err)
		}
		if res.Checksum != bare.Checksum || res.GuestPanic != 0 {
			t.Fatalf("proto %v: checksum %#x (bare %#x), panic %#x", proto, res.Checksum, bare.Checksum, res.GuestPanic)
		}
		if res.Divergences != 0 {
			t.Fatalf("proto %v: %d divergences after reintegration", proto, res.Divergences)
		}
		if snap := c.Snapshot(); snap.Nodes != 3 {
			t.Fatalf("proto %v: %d nodes, want 3", proto, snap.Nodes)
		}
		c.Close()
	}
}

// TestAddBackupRepairChain is the full repair story: primary failstop,
// promotion, reintegration by state transfer, and a SECOND failstop
// that only the reintegrated backup survives. The environment result
// is the bare machine's.
func TestAddBackupRepairChain(t *testing.T) {
	w := DiskWrite(6, 8192)
	bare, _ := runScenario(t, WithWorkload(w), WithDiskLatency(800*Microsecond, 900*Microsecond), Bare())

	c, err := NewCluster(
		WithWorkload(w),
		WithProtocol(ProtocolNew),
		WithDiskLatency(800*Microsecond, 900*Microsecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	events := c.Events()
	var added []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			if ev.Kind == EventBackupAdded {
				added = append(added, ev)
			}
		}
	}()

	if _, err := c.RunFor(5 * Millisecond); err != nil {
		t.Fatal(err)
	}
	c.FailPrimary()
	snap, err := c.RunUntil(func(s Snapshot) bool { return s.Promoted })
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Promoted || snap.Acting != 1 {
		t.Fatalf("after failstop: promoted=%v acting=%d", snap.Promoted, snap.Acting)
	}

	n, err := c.AddBackup()
	if err != nil {
		t.Fatalf("AddBackup: %v", err)
	}
	if n != 2 {
		t.Fatalf("joined as node %d, want 2", n)
	}
	// Let the state transfer land (a ~25 KB image takes ~20 ms on the
	// 10 Mbps link); killing the source mid-flight would lose the image
	// and the reintegration with it.
	if _, err := c.RunFor(40 * Millisecond); err != nil {
		t.Fatal(err)
	}

	// Second failure: kill the acting (promoted) backup. Only the
	// reintegrated node can finish the workload.
	if err := c.FailBackup(1); err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != bare.Checksum || res.GuestPanic != 0 {
		t.Fatalf("checksum %#x (bare %#x), panic %#x", res.Checksum, bare.Checksum, res.GuestPanic)
	}
	final := c.Snapshot()
	if final.Acting != 2 {
		t.Fatalf("acting node %d after second failstop, want the reintegrated node 2", final.Acting)
	}
	c.Close()
	<-done
	if len(added) != 1 || added[0].Node != 2 || added[0].TransferBytes == 0 {
		t.Fatalf("backup-added events: %+v", added)
	}
}

// TestAddBackupTransferCharged pins that the state transfer is paid in
// SIMULATED time: the joiner starts executing only once the image has
// crossed the link and trails the coordinator by the transfer
// duration, so the session over a 100x slower transfer link completes
// (all replicas done) measurably later.
func TestAddBackupTransferCharged(t *testing.T) {
	run := func(opts ...AddBackupOption) Duration {
		c, err := NewCluster(
			WithWorkload(CPUIntensive(60000)),
			WithProtocol(ProtocolOld),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.RunFor(4 * Millisecond); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddBackup(opts...); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot().Now
	}

	fast := run() // cluster default: 10 Mbps Ethernet
	slow := run(AddBackupLink(LinkParams{Name: "serial", BitsPerSecond: 100_000}))
	if slow <= fast {
		t.Fatalf("slow transfer link finished at %v, fast at %v — transfer time not charged", slow, fast)
	}
}

// TestAddBackupLossyLink reintegrates a backup and then PARTITIONS the
// mesh (every future message dropped). Every replica must detect the
// silence through its cascaded timeout and finish the workload
// independently — including the freshly transferred joiner, whose
// failure-detection path never ran before the partition.
func TestAddBackupLossyLink(t *testing.T) {
	w := CPUIntensive(60000)
	bare, _ := runScenario(t, WithWorkload(w), Bare())
	c, err := NewCluster(WithWorkload(w), WithProtocol(ProtocolNew))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.RunFor(4 * Millisecond); err != nil {
		t.Fatal(err)
	}
	c.FailPrimary()
	if _, err := c.RunUntil(func(s Snapshot) bool { return s.Promoted }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddBackup(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunFor(4 * Millisecond); err != nil {
		t.Fatal(err)
	}
	// Total partition: every message on every link from now on is lost.
	if err := c.SetLinkQuality(LinkQuality{DropNext: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != bare.Checksum || res.GuestPanic != 0 {
		t.Fatalf("checksum %#x (bare %#x), panic %#x", res.Checksum, bare.Checksum, res.GuestPanic)
	}
	if res.Divergences != 0 {
		t.Fatalf("%d divergences", res.Divergences)
	}
}

// TestSaveRejectsCustomPlugins pins that a session running a custom
// Program, the one plug point, is refused up front: its guest cannot
// travel through a file.
func TestSaveRejectsCustomPlugins(t *testing.T) {
	c, err := NewCluster(WithProgram(abiProgram{iters: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Save(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "custom Program") {
		t.Fatalf("Save of a session with a custom Program: got %v, want a refusal", err)
	}
}

// TestRunUntilBoundarySampling pins the RunUntil observation contract:
// a predicate that is true only within a window narrower than one
// epoch — between the protocol's commit points — is never observed,
// and the session runs on to completion.
func TestRunUntilBoundarySampling(t *testing.T) {
	c, err := NewCluster(
		WithWorkload(CPUIntensive(20000)),
		WithEpochLength(32768), // one epoch spans ~0.7 ms of virtual time
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The window (10us, 100us) closes long before the first epoch
	// commit: the condition is true for an interval of virtual time,
	// but RunUntil samples only at commits, so it never fires.
	fired := false
	snap, err := c.RunUntil(func(s Snapshot) bool {
		inWindow := s.Now > 10*Microsecond && s.Now < 100*Microsecond
		if inWindow {
			fired = true
		}
		return inWindow
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatalf("predicate observed inside an epoch (Now=%v) — boundary sampling broken", snap.Now)
	}
	if !snap.Done {
		t.Fatalf("session paused at %v without the predicate holding", snap.Now)
	}

	// The same condition phrased monotonically IS caught, at the first
	// commit at or after it becomes true.
	c2, err := NewCluster(WithWorkload(CPUIntensive(20000)), WithEpochLength(32768))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	snap2, err := c2.RunUntil(func(s Snapshot) bool { return s.Now > 10*Microsecond })
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Done || snap2.Epochs == 0 {
		t.Fatalf("monotonic predicate missed: %+v", snap2)
	}
}
