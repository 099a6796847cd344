package hft

// Tests pinning the state path (Save, Restore, AddBackup, shared-image
// boot) from outside: what it writes, byte for byte, and what it costs.
//
// Byte-identity golden: the snapshot encoding is a
// wire format twice over: Save's output is a file format, and the
// AddBackup transfer blob's length is charged to the simulated link —
// so a state-path refactor must leave both byte-for-byte unchanged or
// every virtual metric moves. The Save values below are format 5's,
// regenerated by the change that gave the coordinator one pending-epoch
// list (the replication sections changed shape; machine and hypervisor
// state did not — internal/session's TestTransferBytesGolden still
// holds the values generated before the page-granular state path).

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
// (the joiner's RAM went through RestoreState). While the image flies
// the two backings legitimately differ: a shared-image joiner already
// maps the kernel pages, a private one is still blank. Once installed
// they differ in the serialized sharedImage flag only.
var saveGoldens = map[string][2]stateGolden{
	"private": {
		{46585, "38b2fe2bf584ebcdf2fe48a26f45da72585f9ac68e07af7fd419ee6ecebbb475"},
		{83087, "b4d3a4ee3492417f0525a1586b6fd9e7493ed9148b67e7dc46988f1d3ab41794"},
	},
	"shared": {
		{54793, "2c53bba94725184d389b68f79c682e5fbb0482cb398e0e955e63e4777c9efb2f"},
		{83087, "dbd410d0d334847b14846688c24b845e463aa3cd84ea6c977b5d922f2503f930"},
	},
}

func saveGoldenScenario(t *testing.T, shared bool) [2][]byte {
	t.Helper()
	opts := []Option{
		WithSeed(7),
		WithWorkload(DiskWrite(6, 8192)),
		WithProtocol(ProtocolNew),
		WithEpochLength(2048),
	}
	if shared {
		opts = append(opts, WithSharedImage())
	}
	c, err := NewCluster(opts...)
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

func TestSaveBytesGolden(t *testing.T) {
	for _, name := range []string{"private", "shared"} {
		blobs := saveGoldenScenario(t, name == "shared")
		for i, b := range blobs {
			sum := sha256.Sum256(b)
			got := stateGolden{len(b), hex.EncodeToString(sum[:])}
			if want := saveGoldens[name][i]; got != want {
				t.Errorf("%s save %d: %d bytes sha256 %s, golden %d bytes sha256 %s",
					name, i, got.n, got.sum, want.n, want.sum)
			}
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
// flat MiB per node) and every shared-image boot a flat MiB to look up
// an image it had already interned.
func TestStatePathAllocBudget(t *testing.T) {
	statePathCluster(t).Close() // intern the image, warm the pools
	var c *Cluster
	boot := allocDelta(func() { c = statePathCluster(t) })
	defer c.Close()
	if boot >= 512<<10 {
		t.Errorf("a second shared-image NewCluster + boot allocated %d KB, budget 512 KB", boot>>10)
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
	if out := uint64(buf.Len()); save >= 4*out {
		t.Errorf("Save allocated %d bytes for a %d-byte snapshot (%.1fx), budget 4x", save, out, float64(save)/float64(out))
	}
	t.Logf("boot %d KB; Save %d bytes for a %d-byte snapshot", boot>>10, save, buf.Len())
}
