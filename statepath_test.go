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
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/snapshot"
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

func saveGoldenScenario(t testing.TB) [2][]byte {
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

// FuzzRestoreHeader holds what Restore decodes before it builds or
// replays anything — the configuration, the journal, the final pause and
// the section list — to one property: the decode fails, or buildOptions
// refuses the configuration, or the checkpoint re-encodes to exactly the
// input with the configuration as buildOptions resolved it (what Save
// would write). It never panics. The fuzzed input is the blob's BODY: the
// target adds the header and a valid checksum itself, so mutations reach
// the decoder instead of dying at the checksum gate.
func FuzzRestoreHeader(f *testing.F) {
	body := func(cp checkpoint) []byte {
		w := snapshot.NewWriter(saveMagic)
		cp.code(w.Codec())
		b := w.Finish()
		return b[len(saveMagic)+4 : len(b)-8]
	}
	for _, b := range saveGoldenScenario(f) {
		f.Add(b[len(saveMagic)+4 : len(b)-8])
		// The same header without its sections, so that mutations land
		// in the header rather than in section bytes nothing decodes.
		r, err := snapshot.NewReader(b, saveMagic)
		if err != nil {
			f.Fatal(err)
		}
		var cp checkpoint
		cp.code(r.Codec())
		cp.sections = nil
		f.Add(body(cp))
	}
	// A header with every optional part of the configuration and every
	// journal action.
	o, err := buildOptions([]Option{
		WithWorkload(ServeRequests(40, 3)), WithClientLoad(ClientLoad{Clients: 3, Timeout: Millisecond}),
		WithOutputCommit(OutputCommit{Window: 2, Adaptive: true}), WithBackups(3), WithDetectTimeout(Millisecond),
		WithDisk(DiskSpec{ReadLatency: Millisecond}), WithTerminal(TerminalInput{At: Millisecond, Data: "ab"}),
	})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := buildOptions(o.options()); err != nil {
		f.Fatalf("the full configuration does not resolve again: %v", err)
	}
	link := LinkParams(o.Link)
	f.Add(body(checkpoint{config: *o, pause: pausePoint{pauseAtCommit, 0, 12}, journal: []journalEntry{
		{pause: pausePoint{pauseAtTime, Millisecond, 0}, action: actFailPrimary},
		{pause: pausePoint{pauseAtCommit, 0, 3}, action: actFailBackup, backup: 2},
		{pause: pausePoint{pauseAtTime, 2 * Millisecond, 0}, action: actSetLink, quality: LinkQuality{MTU: 512, DropNext: 1}},
		{pause: pausePoint{pauseAtTime, 3 * Millisecond, 0}, action: actAddBackup, link: link},
	}}))
	f.Fuzz(func(t *testing.T, in []byte) { checkHeader(t, sealSave(in)) })
}

// checkHeader is the header fuzzers' property: blob does not decode, or
// buildOptions refuses its configuration, or it re-encodes, with the
// configuration as buildOptions resolved it, to exactly blob. It reports
// whether blob decoded and resolved.
func checkHeader(t testing.TB, blob []byte) bool {
	r, err := snapshot.NewReader(blob, saveMagic)
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpoint
	cp.code(r.Codec())
	if r.Done() != nil {
		return false
	}
	o, err := buildOptions(cp.config.options())
	if err != nil {
		return false
	}
	cp.config = *o
	w := snapshot.NewWriter(saveMagic)
	cp.code(w.Codec())
	if again := w.Finish(); !bytes.Equal(again, blob) {
		t.Fatalf("restorable header re-encodes to %d bytes, input was %d", len(again), len(blob))
	}
	return true
}

// FuzzRestoreConfig is FuzzRestoreHeader's property over headers whose
// configuration fields are typed fuzz arguments, written field by field
// (rawConfig), so that a mutation changes one field rather than one byte
// in several hundred: it reaches the refusals of a single field's value,
// such as the NIC flag's two copies differing, which byte mutation
// rarely does. The header carries no journal entries, a zero pause and
// no sections.
func FuzzRestoreConfig(f *testing.F) {
	for _, opts := range [][]Option{
		{WithWorkload(CPUIntensive(1000))},
		{WithWorkload(ServeRequests(40, 3)), WithClientLoad(ClientLoad{Clients: 3, Timeout: Millisecond}),
			WithOutputCommit(OutputCommit{Window: 2, Adaptive: true}), WithBackups(3), WithDetectTimeout(Millisecond),
			WithDisk(DiskSpec{ReadLatency: Millisecond}), WithTerminal(TerminalInput{At: Millisecond, Data: "ab"})},
		{WithWorkload(TwoDiskCopy(4, 2)), WithDisk(DiskSpec{}), WithProtocol(ProtocolNew), WithLink(ATM155()), WithBackups(2)},
	} {
		o, err := buildOptions(opts)
		if err != nil {
			f.Fatal(err)
		}
		rc := rawConfigOf(o)
		// The target writes what Save writes, and Save's header restores.
		w := snapshot.NewWriter(saveMagic)
		(&checkpoint{config: *o}).code(w.Codec())
		if blob := w.Finish(); !bytes.Equal(rc.blob(), blob) || !checkHeader(f, blob) {
			f.Fatalf("seed %+v: the target's header differs from Save's, or does not restore", rc)
		}
		f.Add(rc.Seed, rc.Kind, rc.Iters, rc.Ops, rc.WSeed, rc.BlockMask, rc.BlockBase, rc.Count, rc.PreOp, rc.PrivOps,
			rc.Epoch, rc.Protocol, rc.LinkName, rc.Bandwidth, rc.Latency, rc.MTU, rc.FrameOverhead, rc.PerMessageFrames,
			rc.SetupTime, rc.DetectTimeout, rc.Backups, rc.ReadLatency, rc.WriteLatency,
			rc.ExtraDisk, rc.ExtraRead, rc.ExtraWrite, rc.Terminal, rc.TerminalAt, rc.TerminalData, rc.NIC, rc.Load, rc.Clients, rc.PayloadWords, rc.Start, rc.MeanGap, rc.Timeout,
			rc.OutputCommit, rc.Window, rc.Adaptive)
	}
	f.Fuzz(func(t *testing.T, seed int64, kind, iters, ops, wseed, mask, base, count, preOp, privOps uint32,
		epoch uint64, proto uint8, link string, bps, lat int64, mtu, overhead, perMsg int, setup, detect int64,
		backups int, readLat, writeLat int64, extraDisk bool, extraRead, extraWrite int64, term bool, termAt int64, termData []byte,
		nic, load bool, clients, payload int, start, gap, timeout int64, commit bool, window int, adaptive bool) {
		rc := rawConfig{seed, kind, iters, ops, wseed, mask, base, count, preOp, privOps,
			epoch, proto, link, bps, lat, mtu, overhead, perMsg, setup, detect,
			backups, readLat, writeLat, extraDisk, extraRead, extraWrite, term, termAt, termData,
			nic, load, clients, payload, start, gap, timeout, commit, window, adaptive}
		checkHeader(t, rc.blob())
	})
}

// rawConfig is a checkpoint's configuration as FuzzRestoreConfig types
// it: every field clusterOptions.code reads, in the order it reads them,
// with the NIC flag's two copies apart and the two reserved fields left
// out (blob writes them as Save does). One extra disk is written if
// ExtraDisk, one terminal input if Terminal; the client load fields go in if Load, the
// window and the adaptive flag if OutputCommit, as the decoder reads them.
type rawConfig struct {
	Seed                                                                 int64
	Kind, Iters, Ops, WSeed, BlockMask, BlockBase, Count, PreOp, PrivOps uint32
	Epoch                                                                uint64
	Protocol                                                             uint8
	LinkName                                                             string
	Bandwidth, Latency                                                   int64
	MTU, FrameOverhead, PerMessageFrames                                 int
	SetupTime, DetectTimeout                                             int64
	Backups                                                              int
	ReadLatency, WriteLatency                                            int64
	ExtraDisk                                                            bool
	ExtraRead, ExtraWrite                                                int64
	Terminal                                                             bool
	TerminalAt                                                           int64
	TerminalData                                                         []byte
	NIC, Load                                                            bool
	Clients, PayloadWords                                                int
	Start, MeanGap, Timeout                                              int64
	OutputCommit                                                         bool
	Window                                                               int
	Adaptive                                                             bool
}

// rawConfigOf types a resolved configuration with at most one extra disk
// and one terminal input.
func rawConfigOf(o *clusterOptions) rawConfig {
	wl, l := o.workload, o.Link
	rc := rawConfig{Seed: o.Seed, Kind: wl.Kind, Iters: wl.Iters, Ops: wl.Ops, WSeed: wl.Seed,
		BlockMask: wl.BlockMask, BlockBase: wl.BlockBase, Count: wl.Count, PreOp: wl.PreOp, PrivOps: wl.PrivOps,
		Epoch: o.EpochLength, Protocol: uint8(o.Protocol), LinkName: l.Name, Bandwidth: l.BitsPerSecond,
		Latency: int64(l.Latency), MTU: l.MTU, FrameOverhead: l.FrameOverhead, PerMessageFrames: l.PerMessageFrames,
		SetupTime: int64(l.SetupTime), DetectTimeout: int64(o.DetectTimeout), Backups: o.Backups,
		ReadLatency:  int64(o.Disk.ReadLatency),
		WriteLatency: int64(o.Disk.WriteLatency), NIC: o.ClientLoad != nil, Load: o.ClientLoad != nil,
		OutputCommit: o.OutputCommit.Enabled, Window: o.OutputCommit.Window, Adaptive: o.OutputCommit.Adaptive}
	if len(o.ExtraDisks) > 0 {
		d := o.ExtraDisks[0]
		rc.ExtraDisk, rc.ExtraRead, rc.ExtraWrite = true, int64(d.ReadLatency), int64(d.WriteLatency)
	}
	if len(o.Terminal) > 0 {
		rc.Terminal, rc.TerminalAt, rc.TerminalData = true, int64(o.Terminal[0].At), o.Terminal[0].Data
	}
	if cl := o.ClientLoad; cl != nil {
		rc.Clients, rc.PayloadWords = cl.Clients, cl.PayloadWords
		rc.Start, rc.MeanGap, rc.Timeout = int64(cl.Start), int64(cl.MeanGap), int64(cl.Timeout)
	}
	return rc
}

// blob writes rc field by field as a checkpoint header with no journal
// entries, a zero pause and no sections, sealed.
func (rc *rawConfig) blob() []byte {
	w := snapshot.NewWriter(saveMagic)
	w.I64(rc.Seed)
	for _, v := range [...]uint32{rc.Kind, rc.Iters, rc.Ops, rc.WSeed, rc.BlockMask, rc.BlockBase, rc.Count, rc.PreOp, rc.PrivOps} {
		w.U32(v)
	}
	w.U64(rc.Epoch)
	w.U8(rc.Protocol)
	w.String(rc.LinkName)
	w.I64(rc.Bandwidth)
	w.I64(rc.Latency)
	w.Int(rc.MTU)
	w.Int(rc.FrameOverhead)
	w.Int(rc.PerMessageFrames)
	w.I64(rc.SetupTime)
	w.I64(rc.DetectTimeout)
	w.Int(rc.Backups)
	w.I64(0) // reserved
	w.U32(0)
	w.I64(rc.ReadLatency)
	w.I64(rc.WriteLatency)
	count := func(present bool) uint32 {
		if present {
			return 1
		}
		return 0
	}
	w.U32(count(rc.ExtraDisk))
	if rc.ExtraDisk {
		w.I64(rc.ExtraRead)
		w.I64(rc.ExtraWrite)
	}
	w.U32(count(rc.Terminal))
	if rc.Terminal {
		w.I64(rc.TerminalAt)
		w.Bytes(rc.TerminalData)
	}
	w.Bool(rc.NIC)
	w.Bool(rc.Load)
	if rc.Load {
		w.Int(rc.Clients)
		w.Int(rc.PayloadWords)
		w.I64(rc.Start)
		w.I64(rc.MeanGap)
		w.I64(rc.Timeout)
	}
	w.Bool(rc.OutputCommit)
	if rc.OutputCommit {
		w.Int(rc.Window)
		w.Bool(rc.Adaptive)
	}
	w.U32(0) // journal entries
	w.U8(0)  // pause: kind, time, commits
	w.I64(0)
	w.U64(0)
	w.U32(0) // sections
	return w.Finish()
}

// sealSave wraps a checkpoint body in its header and checksum trailer.
func sealSave(body []byte) []byte {
	blob := binary.LittleEndian.AppendUint32([]byte(saveMagic), snapshot.FormatVersion)
	return reseal(append(append(blob, body...), make([]byte, 8)...))
}

// TestRestoreHeaderCanonical: Restore's header decoder refuses the
// spellings of a configuration that Save never writes — each would
// restore and then save to other bytes — and accepts the one it does.
func TestRestoreHeaderCanonical(t *testing.T) {
	const detect = 0x1111111 // findable in the bytes
	opts := []Option{WithWorkload(ServeRequests(40, 3)), WithClientLoad(ClientLoad{}), WithBackups(2),
		WithDetectTimeout(detect), WithOutputCommit(OutputCommit{Window: 2})}
	o, err := buildOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	body := func(o clusterOptions) []byte {
		w := snapshot.NewWriter(saveMagic)
		cp := checkpoint{config: o}
		cp.code(w.Codec())
		b := w.Finish()
		return b[len(saveMagic)+4 : len(b)-8]
	}
	restorable := func(body []byte) error {
		r, err := snapshot.NewReader(sealSave(body), saveMagic)
		if err != nil {
			return err
		}
		var cp checkpoint
		cp.code(r.Codec())
		if err := r.Done(); err != nil {
			return err
		}
		_, err = buildOptions(cp.config.options())
		return err
	}
	good := body(*o)
	if err := restorable(good); err != nil {
		t.Fatalf("Save's own header refused: %v", err)
	}

	// The NIC flag's two copies differ: the first one off.
	noLoad := *o
	noLoad.ClientLoad = nil
	flags := bytes.Clone(good)
	i := 0
	for noNIC := body(noLoad); flags[i] == noNIC[i]; i++ {
	}
	flags[i] = 0
	// The reserved I64 and Count after the detect timeout and the
	// backup count, each nonzero.
	reserved := bytes.Index(good, binary.LittleEndian.AppendUint64(nil, detect)) + 16
	at, count := bytes.Clone(good), bytes.Clone(good)
	at[reserved] = 1
	count[reserved+8] = 1
	// Output commit on with a zero window, which resolves to one.
	zero := *o
	zero.OutputCommit.Window = 0

	for name, b := range map[string][]byte{"NIC flags differ": flags, "reserved time set": at, "reserved count set": count,
		"zero window": body(zero)} {
		if err := restorable(b); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: decoded with %v, want snapshot.ErrCorrupt", name, err)
		}
	}

	// A link WithLink refuses is refused on the way back in too.
	negFrame := *o
	negFrame.Link.FrameOverhead = -1
	if err := restorable(body(negFrame)); err == nil || !strings.Contains(err.Error(), "negative parameters") {
		t.Errorf("negative frame overhead: restored with %v, want a refusal", err)
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

// TestSaveAllocs pins what a warm Save of a booted three-node disk
// cluster allocates: every layer is encoded straight from its live state
// into a buffer the cluster's arena owns, and the sorted lists the
// replication sections are written in are scratch the replicas keep.
// It read 54 objects while each capture built a copy of every layer's
// state, a list of named section closures and sorted key lists.
func TestSaveAllocs(t *testing.T) {
	c, err := NewCluster(WithWorkload(DiskWrite(6, 8192)), WithBackups(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunFor(6 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(io.Discard); err != nil { // grows the arena's buffers
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if err := c.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a warm Save allocates %v objects", n)
	if n != 0 {
		t.Fatalf("a warm Save allocates %v objects, want none", n)
	}
}
