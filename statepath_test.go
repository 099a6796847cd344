package hft

// Tests pinning the state path (Save, Restore, AddBackup, boot over the
// shared base image) from outside: what it writes, byte for byte, and what it costs.
//
// Byte-identity golden: the snapshot encoding is a
// wire format twice over: Save's output is a file format, and the
// AddBackup transfer blob's length is charged to the simulated link —
// so a state-path refactor must leave both byte-for-byte unchanged or
// every virtual metric moves. The Save values below are format 7's,
// regenerated by the change that encodes TLB recency as order (each LRU
// stamp as its rank, the clock as the highest rank, in the same widths):
// the lengths are format 6's, and the same values come out of a build
// with -tags spec, which runs no trace.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// stateGolden is one pinned Save output: length + SHA-256.
type stateGolden struct {
	n   int
	sum string
}

// saveGoldens pins one small fixed scenario — a pair, mid-run, after
// one AddBackup — saved twice: with the transfer still in flight
// (the xfer link carries the image) and after the joiner installed it
// (the joiner's RAM went through RestoreState). The hashes are format
// 8's, whose checksum trailers and state digests are the word hash
// (snapshot.Mix) instead of byte-serial FNV-64a; the lengths have not
// moved since format 7.
var saveGoldens = [2]stateGolden{
	{54792, "42784444a0b3dd712ba28f136212405d183022e8871fd566842aacdccef5caf0"},
	{83086, "eaa6146fa61d4eef55464888ba0204cec1920877999c39028c7bb8cdd1da4cbe"},
}

func saveGoldenScenario(t *testing.T) [2][]byte {
	t.Helper()
	c, err := NewCluster(
		WithSeed(7),
		WithWorkload(DiskWrite(6, 8192)),
		WithProtocol(ProtocolNew),
		WithEpochLength(2048),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunFor(6 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddBackup(); err != nil {
		t.Fatal(err)
	}
	var out [2][]byte
	for i, d := range []Duration{2 * Millisecond, 60 * Millisecond} {
		if _, err := c.RunFor(d); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	if c.Snapshot().Done {
		t.Fatal("scenario completed before the second Save; it no longer captures mid-run state")
	}
	return out
}

// TestSaveBytesGolden pins Save's output and its fixed point: restoring
// either checkpoint — the second after the transferred image landed, so
// the joiner's restore re-shares almost every page against the base
// image — and saving again reproduces it byte for byte.
func TestSaveBytesGolden(t *testing.T) {
	for i, b := range saveGoldenScenario(t) {
		sum := sha256.Sum256(b)
		got := stateGolden{len(b), hex.EncodeToString(sum[:])}
		if want := saveGoldens[i]; got != want {
			t.Errorf("save %d: %d bytes sha256 %s, golden %d bytes sha256 %s",
				i, got.n, got.sum, want.n, want.sum)
		}
		restored, err := Restore(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		var again bytes.Buffer
		err = restored.Save(&again)
		restored.Close()
		if err != nil || !bytes.Equal(b, again.Bytes()) {
			t.Errorf("save %d: restore + re-save is not byte-identical (err %v)", i, err)
		}
	}
}

// allocDelta returns the bytes f allocates (runtime TotalAlloc delta;
// cumulative, so garbage collection does not disturb it).
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStatePathAllocBudget bounds what the state path allocates, in
// bytes, so a flat RAM image cannot creep back in: before the
// page-granular path, Save of this pair allocated 78x its output (one
// flat MiB per node) and every boot a flat MiB to look up an image it
// had already interned.
func TestStatePathAllocBudget(t *testing.T) {
	statePathCluster(t).Close() // intern the image, warm the pools
	var c *Cluster
	boot := allocDelta(func() { c = statePathCluster(t) })
	defer c.Close()
	if boot >= 512<<10 {
		t.Errorf("a second NewCluster + boot allocated %d KB, budget 512 KB", boot>>10)
	}

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil { // sizes buf and the encode buffer
		t.Fatal(err)
	}
	buf.Reset()
	save := allocDelta(func() {
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if out := uint64(buf.Len()); save >= out/8 {
		t.Errorf("Save allocated %d bytes for a %d-byte snapshot (%.2fx), budget 1/8", save, out, float64(save)/float64(out))
	}
	t.Logf("boot %d KB; Save %d bytes for a %d-byte snapshot", boot>>10, save, buf.Len())
}
