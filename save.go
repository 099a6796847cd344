package hft

// Session checkpointing. A Cluster's whole future is a deterministic
// function of three things: its (validated, serializable)
// configuration, the ordered log of live perturbations applied to it
// (failstops, link-quality changes, backup reintegrations — each tagged
// with the exact pause position it was applied at), and how far it has
// been advanced. Save serializes exactly that, PLUS a complete labeled
// capture of the simulation state (every node's machine image with RAM,
// registers, TLB and recovery counter; every engine's replication
// state with its archive tail, sequence watermarks and pending
// buffers; environment digests).
//
// Restore rebuilds the session from the configuration, replays the
// journal — re-applying each perturbation at its recorded pause
// position, which reproduces the original kernel state exactly (the
// sliced-session differential suite pins that pausing is
// perturbation-free) — advances to the saved position, and then
// VERIFIES the reconstructed state against the embedded capture
// section by section. A snapshot from a different format version is
// rejected up front (ErrSnapshotVersion); a verified restore is
// bit-identical to the original run by construction, and the
// round-trip differential tests in snapshot_test.go pin it.
//
// This is the simulation-level mirror of the paper's own mechanism:
// the backup reconstructs the primary's state not by copying arbitrary
// mid-flight internals but by replaying the same deterministic inputs
// from a known point — here applied to the entire cluster.

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/free"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// saveMagic opens a session checkpoint blob.
const saveMagic = "HFTSAVE1"

// ErrSnapshotVersion reports a snapshot written by a different format
// version of this package (test with errors.Is).
var ErrSnapshotVersion = snapshot.ErrVersion

// ErrSnapshotCorrupt reports a snapshot that fails structural
// validation: bad magic, checksum mismatch, or truncation.
var ErrSnapshotCorrupt = snapshot.ErrCorrupt

// pauseKind distinguishes the replayable pause coordinates.
type pauseKind uint8

const (
	// pauseAtTime: the session was paused at an exact virtual time
	// (RunFor's bound).
	pauseAtTime pauseKind = iota
	// pauseAtCommit: the session was paused at a cumulative
	// epoch-commit ordinal (RunUntil / cancelled Wait).
	pauseAtCommit
	// pauseAtDone: the session ran to completion.
	pauseAtDone
)

// pausePoint is one replayable pause position.
type pausePoint struct {
	kind    pauseKind
	time    Duration
	commits uint64
}

// actionKind enumerates journalled live perturbations.
type actionKind uint8

const (
	actFailPrimary actionKind = iota
	actFailBackup
	actSetLink
	actAddBackup
)

// journalEntry is one live perturbation and the pause it was applied at.
type journalEntry struct {
	pause   pausePoint
	action  actionKind
	backup  int         // actFailBackup
	quality LinkQuality // actSetLink
	link    LinkParams  // actAddBackup
}

// Save serializes the session to w: configuration, perturbation
// journal, current position, and a complete verified-on-restore state
// capture. The session itself is unaffected (capturing is read-only)
// and remains usable.
//
// Save requires a serializable configuration: sessions using a custom
// Program or DiskBackend cannot be checkpointed (an interface
// implementation cannot travel through a file); any LinkModel is fine —
// its resolved LinkParams are the complete channel behavior.
func (c *Cluster) Save(w io.Writer) error {
	if c.closed {
		return ErrClosed
	}
	if c.opts.program != nil {
		return errors.New("hft: Save: sessions with a custom Program are not serializable")
	}
	if c.opts.Disk.Backend != nil {
		return errors.New("hft: Save: sessions with a custom DiskBackend are not serializable")
	}
	for i, d := range c.opts.ExtraDisks {
		if d.Backend != nil {
			return fmt.Errorf("hft: Save: disk %d has a custom DiskBackend; not serializable", i+1)
		}
	}
	if c.opts.Bare {
		return errors.New("hft: Save: bare baseline sessions are not checkpointable")
	}

	// The blob is dead once written out, so it encodes into a buffer the
	// cluster's arena owns: capture sections are written in place,
	// straight from the machines' page frames.
	sw := c.eng.Writer(saveMagic)
	defer c.eng.Recycle(sw)
	c.putConfig(sw)
	sw.U32(uint32(len(c.journal)))
	for _, e := range c.journal {
		putPause(sw, e.pause)
		sw.U8(uint8(e.action))
		sw.Int(e.backup)
		sw.I64(e.quality.BitsPerSecond)
		sw.I64(int64(e.quality.Latency))
		sw.Int(e.quality.MTU)
		sw.Int(e.quality.DropNext)
		putLinkParams(sw, e.link)
	}
	putPause(sw, c.pause)

	c.eng.EncodeSections(sw)

	_, err := w.Write(sw.Finish())
	return err
}

// putConfig serializes the resolved cluster options.
func (c *Cluster) putConfig(w *snapshot.Writer) {
	o := c.opts
	w.I64(o.Seed)
	wl := o.workload
	w.U32(wl.Kind)
	w.U32(wl.Iters)
	w.U32(wl.Ops)
	w.U32(wl.Seed)
	w.U32(wl.BlockMask)
	w.U32(wl.BlockBase)
	w.U32(wl.Count)
	w.U32(wl.PreOp)
	w.U32(wl.PrivOps)
	w.U64(o.EpochLength)
	w.U8(uint8(o.Protocol))
	putLinkParams(w, LinkParams(o.Link))
	w.I64(int64(o.DetectTimeout))
	w.Int(o.Backups)
	w.I64(int64(o.FailPrimaryAt))
	n := 0
	for _, at := range o.FailBackupAt {
		if at > 0 {
			n++
		}
	}
	w.U32(uint32(n))
	for i, at := range o.FailBackupAt {
		if at > 0 {
			w.Int(i + 1)
			w.I64(int64(at))
		}
	}
	w.I64(int64(o.Disk.ReadLatency))
	w.I64(int64(o.Disk.WriteLatency))
	w.U32(uint32(len(o.ExtraDisks)))
	for _, d := range o.ExtraDisks {
		w.I64(int64(d.ReadLatency))
		w.I64(int64(d.WriteLatency))
	}
	w.U32(uint32(len(o.Terminal)))
	for _, ev := range o.Terminal {
		w.I64(int64(ev.At))
		w.String(string(ev.Data))
	}
	// The NIC flag: the adapter is attached exactly when client load is.
	w.Bool(o.ClientLoad != nil)
	w.Bool(o.ClientLoad != nil)
	if cl := o.ClientLoad; cl != nil {
		w.Int(cl.Clients)
		w.Int(cl.PayloadWords)
		w.I64(int64(cl.Start))
		w.I64(int64(cl.MeanGap))
		w.I64(int64(cl.Timeout))
	}
	w.Bool(o.OutputCommit.Enabled)
	if o.OutputCommit.Enabled {
		w.Int(o.OutputCommit.Window)
		w.Bool(o.OutputCommit.Adaptive)
	}
}

// configFrom decodes a snapshot's configuration into the options that
// built the cluster, for buildOptions to validate and resolve exactly as
// NewCluster does.
func configFrom(r *snapshot.Reader) []Option {
	opts := []Option{WithSeed(r.I64())}
	var wl Workload
	wl.Kind = r.U32()
	wl.Iters = r.U32()
	wl.Ops = r.U32()
	wl.Seed = r.U32()
	wl.BlockMask = r.U32()
	wl.BlockBase = r.U32()
	wl.Count = r.U32()
	wl.PreOp = r.U32()
	wl.PrivOps = r.U32()
	opts = append(opts, WithWorkload(wl), WithEpochLength(r.U64()), WithProtocol(Protocol(r.U8())), WithLink(linkParams(r)))
	// Zero durations are the unset defaults, which the options reject.
	if d := Duration(r.I64()); d != 0 {
		opts = append(opts, WithDetectTimeout(d))
	}
	opts = append(opts, WithBackups(r.Int()))
	if t := Duration(r.I64()); t != 0 {
		opts = append(opts, WithFailPrimaryAt(t))
	}
	n := int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		idx := r.Int()
		opts = append(opts, WithFailBackupAt(idx, Duration(r.I64())))
	}
	read := Duration(r.I64())
	opts = append(opts, WithDiskLatency(read, Duration(r.I64())))
	n = int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		read := Duration(r.I64())
		opts = append(opts, WithDisk(DiskSpec{ReadLatency: read, WriteLatency: Duration(r.I64())}))
	}
	var script []TerminalInput
	n = int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		at := Duration(r.I64())
		script = append(script, TerminalInput{At: at, Data: r.String()})
	}
	if len(script) > 0 {
		opts = append(opts, WithTerminal(script...))
	}
	r.Bool() // the NIC flag, implied by client load
	if r.Bool() {
		var cl ClientLoad
		cl.Clients = r.Int()
		cl.PayloadWords = r.Int()
		cl.Start = Duration(r.I64())
		cl.MeanGap = Duration(r.I64())
		cl.Timeout = Duration(r.I64())
		opts = append(opts, WithClientLoad(cl))
	}
	if r.Bool() {
		var oc OutputCommit
		oc.Window = r.Int()
		oc.Adaptive = r.Bool()
		opts = append(opts, WithOutputCommit(oc))
	}
	return opts
}

func putLinkParams(w *snapshot.Writer, p LinkParams) {
	w.String(p.Name)
	w.I64(p.BitsPerSecond)
	w.I64(int64(p.Latency))
	w.Int(p.MTU)
	w.Int(p.FrameOverhead)
	w.Int(p.PerMessageFrames)
	w.I64(int64(p.SetupTime))
}

func linkParams(r *snapshot.Reader) LinkParams {
	return LinkParams{
		Name:             r.String(),
		BitsPerSecond:    r.I64(),
		Latency:          Duration(r.I64()),
		MTU:              r.Int(),
		FrameOverhead:    r.Int(),
		PerMessageFrames: r.Int(),
		SetupTime:        Duration(r.I64()),
	}
}

func putPause(w *snapshot.Writer, p pausePoint) {
	w.U8(uint8(p.kind))
	w.I64(int64(p.time))
	w.U64(p.commits)
}

func pause(r *snapshot.Reader) pausePoint {
	return pausePoint{
		kind:    pauseKind(r.U8()),
		time:    Duration(r.I64()),
		commits: r.U64(),
	}
}

// restoreReaders holds the readers idle Restore calls read their blobs
// into, each with the buffer its last blob grew.
var restoreReaders free.Shelf[*snapshot.Reader]

// Restore reads a checkpoint written by Save and reconstructs the
// session: the configuration is rebuilt through NewCluster's validation
// (one NewCluster would reject is ErrSnapshotCorrupt), the perturbation
// journal is replayed with each action re-applied at its recorded pause
// position, and the session is advanced to the saved position. By the
// determinism contract the result is bit-identical to the original —
// and Restore proves it by comparing a fresh state capture against the
// snapshot's embedded one, section by section, failing loudly on any
// divergence.
//
// Snapshots from a different format version are rejected with an error
// wrapping ErrSnapshotVersion; structurally invalid data with one
// wrapping ErrSnapshotCorrupt. The returned cluster is live: it can be
// advanced, perturbed, observed and saved again.
func Restore(r io.Reader) (*Cluster, error) {
	// The blob is dead once Restore returns: want's sections are only
	// compared and every decoded string is a copy, so it is read into a
	// reader borrowed for the call. It is read before the cluster exists,
	// so no cluster's arena can own it.
	sr, ok := restoreReaders.Get()
	if !ok {
		sr = new(snapshot.Reader)
	}
	defer restoreReaders.Put(sr)
	if err := sr.ReadBlob(r, saveMagic); err != nil {
		return nil, fmt.Errorf("hft: Restore: %w", err)
	}

	opts := configFrom(sr)
	nj := int(sr.U32())
	var journal []journalEntry
	for i := 0; i < nj && sr.Err() == nil; i++ {
		var e journalEntry
		e.pause = pause(sr)
		e.action = actionKind(sr.U8())
		e.backup = sr.Int()
		e.quality.BitsPerSecond = sr.I64()
		e.quality.Latency = Duration(sr.I64())
		e.quality.MTU = sr.Int()
		e.quality.DropNext = sr.Int()
		e.link = linkParams(sr)
		journal = append(journal, e)
	}
	final := pause(sr)
	ns := int(sr.U32())
	var want []session.Section
	for i := 0; i < ns && sr.Err() == nil; i++ {
		want = append(want, session.Section{Name: sr.String(), Data: sr.View()})
	}
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("hft: Restore: %w", err)
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, fmt.Errorf("hft: Restore: %w: %w", ErrSnapshotCorrupt, err)
	}

	c := newCluster(o)
	c.journal = journal
	for i, e := range journal {
		if err := c.replayTo(e.pause); err != nil {
			c.Close()
			return nil, fmt.Errorf("hft: Restore: replaying journal entry %d: %w", i, err)
		}
		if err := c.replayAction(e); err != nil {
			c.Close()
			return nil, fmt.Errorf("hft: Restore: replaying journal entry %d: %w", i, err)
		}
	}
	if err := c.replayTo(final); err != nil {
		c.Close()
		return nil, fmt.Errorf("hft: Restore: %w", err)
	}
	c.pause = final

	if err := c.eng.VerifySections(want); err != nil {
		c.Close()
		return nil, fmt.Errorf("hft: Restore: replayed state diverges from snapshot: %w", err)
	}
	return c, nil
}

// replayTo advances the restored session to a recorded pause position.
func (c *Cluster) replayTo(p pausePoint) error {
	switch p.kind {
	case pauseAtTime:
		return c.eng.RunFor(sim.Time(p.time) - c.eng.Now())
	case pauseAtCommit:
		return c.eng.RunUntilCommits(p.commits)
	case pauseAtDone:
		return c.eng.RunToCompletion(nil)
	}
	return fmt.Errorf("%w: unknown pause kind %d", ErrSnapshotCorrupt, p.kind)
}

// replayAction re-applies one journalled perturbation (without
// re-journaling — the entry is already in c.journal).
func (c *Cluster) replayAction(e journalEntry) error {
	switch e.action {
	case actFailPrimary:
		_, err := c.eng.FailNode(0)
		return err
	case actFailBackup:
		_, err := c.failBackup(e.backup)
		return err
	case actSetLink:
		return c.eng.SetLinkQuality(netsim.Quality(e.quality))
	case actAddBackup:
		if _, err := checkLink(e.link); err != nil {
			return fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
		}
		_, err := c.eng.AddBackup(session.AddBackupConfig{Link: netsim.LinkConfig(e.link)})
		return err
	}
	return fmt.Errorf("%w: unknown journal action %d", ErrSnapshotCorrupt, e.action)
}
