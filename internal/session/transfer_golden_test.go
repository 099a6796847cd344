package session

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/sim"
)

// TestTransferBytesGolden pins the AddBackup state-transfer blob byte
// for byte. Its length is charged to the simulated link, so a state
// path change that moves a single byte moves every virtual metric
// downstream of a reintegration. The expected length was generated on
// the commit before the page-granular state path landed (7d1173e, flat
// 1 MiB captures) and has not moved since; the SHA-256 is transfer
// version 6's, whose checksum trailers are the word hash (snapshot.Mix)
// instead of byte-serial FNV-64a (version 5 encoded TLB recency as
// order, each LRU stamp as its rank, in the same widths), and a build
// with -tags spec, which runs no trace, produces the same blob.
func TestTransferBytesGolden(t *testing.T) {
	const (
		wantLen = 25807
		wantSum = "36e3408fc0838377e13de27fcdee2dacae882a0bea0e6341bad26eab81d43c0c"
	)
	var charged uint64
	e := New(Options{
		Seed:        7,
		Program:     WorkloadProgram(guest.DiskWrite(6, 8192)),
		EpochLength: 2048,
		Protocol:    replication.ProtocolNew,
		Observer: func(ev obs.Event) {
			if ev.Kind == obs.EventBackupAdded {
				charged = ev.TransferBytes
			}
		},
	})
	defer e.Close()
	if err := e.RunFor(6 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddBackup(AddBackupConfig{}); err != nil {
		t.Fatal(err)
	}
	// No virtual time has passed since AddBackup captured at its
	// quiesced boundary, so re-encoding reproduces the shipped blob.
	blob := e.encodeTransfer(e.lastNode)
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); len(blob) != wantLen || got != wantSum || charged != wantLen {
		t.Errorf("transfer is %d bytes (link charged %d) sha256 %s, golden %d bytes sha256 %s",
			len(blob), charged, got, wantLen, wantSum)
	}
}
