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

	"repro/internal/clientsim"
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
// Save requires a serializable configuration: a session running a
// custom Program cannot be checkpointed (an interface implementation
// cannot travel through a file); any LinkParams is fine — it is the
// complete channel behavior.
func (c *Cluster) Save(w io.Writer) error {
	if c.closed {
		return ErrClosed
	}
	if c.opts.program != nil {
		return errors.New("hft: Save: sessions with a custom Program are not serializable")
	}
	if c.opts.Bare {
		return errors.New("hft: Save: bare baseline sessions are not checkpointable")
	}

	// The blob is dead once written out, so it encodes into a buffer the
	// cluster's arena owns: capture sections are written in place,
	// straight from the machines' page frames.
	sw := c.eng.Writer(saveMagic)
	defer c.eng.Recycle(sw)
	cp := checkpoint{config: *c.opts, journal: c.journal, pause: c.pause}
	cp.head(sw.Codec())
	c.eng.EncodeSections(sw)

	_, err := w.Write(sw.Finish())
	return err
}

// checkpoint is a checkpoint blob's contents: the configuration, the
// perturbation journal, the pause position, then the capture's sections.
// Save codes the first three from the cluster (head) and has the engine
// encode the sections in place; Restore decodes all four into this
// staging value before it builds or replays anything.
type checkpoint struct {
	config   clusterOptions
	journal  []journalEntry
	pause    pausePoint
	sections []session.Section
}

// Encoded sizes a decode bounds its allocations by.
const (
	linkParamsMin   = 4 + 6*8
	journalEntryMin = 17 + 1 + 8 + 4*8 + linkParamsMin
	sectionMin      = 4 + 4
)

// code codes the whole checkpoint: head, then the section list.
func (cp *checkpoint) code(c *snapshot.Codec) {
	cp.head(c)
	snapshot.Slice(c, &cp.sections, sectionMin)
	for i := range cp.sections {
		c.String(&cp.sections[i].Name)
		c.View(&cp.sections[i].Data)
	}
}

// head codes everything before the sections.
func (cp *checkpoint) head(c *snapshot.Codec) {
	cp.config.code(c)
	snapshot.Slice(c, &cp.journal, journalEntryMin)
	for i := range cp.journal {
		cp.journal[i].code(c)
	}
	cp.pause.code(c)
}

// code codes the resolved cluster options. Read, o is a staging value
// that options turns back into the options that built it, so every
// decoded field passes NewCluster's own validation (buildOptions). A
// read also refuses what Save never writes, so that a checkpoint which
// restores saves again to its own bytes.
func (o *clusterOptions) code(c *snapshot.Codec) {
	c.I64(&o.Seed)
	wl := &o.workload
	for _, p := range [...]*uint32{&wl.Kind, &wl.Iters, &wl.Ops, &wl.Seed, &wl.BlockMask, &wl.BlockBase, &wl.Count, &wl.PreOp, &wl.PrivOps} {
		c.U32(p)
	}
	c.U64(&o.EpochLength)
	proto := uint8(o.Protocol)
	c.U8(&proto)
	o.Protocol = Protocol(proto)
	(*LinkParams)(&o.Link).code(c)
	c.I64((*int64)(&o.DetectTimeout))
	c.Int(&o.Backups)
	// Two reserved zeros, an I64 and a Count: the format's place for a
	// failure schedule. Failstops are injected live and journaled, so
	// nothing else is ever written there.
	var reservedAt int64
	reservedN := 0
	c.I64(&reservedAt)
	c.Count(&reservedN, 1)
	if c.Reading() && (reservedAt != 0 || reservedN != 0) {
		c.Fail()
	}
	c.I64((*int64)(&o.Disk.ReadLatency))
	c.I64((*int64)(&o.Disk.WriteLatency))
	snapshot.Slice(c, &o.ExtraDisks, 2*8)
	for i := range o.ExtraDisks {
		c.I64((*int64)(&o.ExtraDisks[i].ReadLatency))
		c.I64((*int64)(&o.ExtraDisks[i].WriteLatency))
	}
	snapshot.Slice(c, &o.Terminal, 8+4)
	for i := range o.Terminal {
		c.I64((*int64)(&o.Terminal[i].At))
		c.Bytes(&o.Terminal[i].Data)
	}
	// The NIC flag, written twice: the adapter is attached exactly when
	// client load is.
	nic, load := o.ClientLoad != nil, o.ClientLoad != nil
	c.Bool(&nic)
	c.Bool(&load)
	if c.Reading() && load {
		o.ClientLoad = new(clientsim.Config)
	}
	if cl := o.ClientLoad; load {
		c.Int(&cl.Clients)
		c.Int(&cl.PayloadWords)
		c.I64((*int64)(&cl.Start))
		c.I64((*int64)(&cl.MeanGap))
		c.I64((*int64)(&cl.Timeout))
	}
	oc := &o.OutputCommit
	c.Bool(&oc.Enabled)
	if oc.Enabled {
		c.Int(&oc.Window)
		c.Bool(&oc.Adaptive)
	}
	// WithOutputCommit resolves a zero window to one.
	if c.Reading() && (nic != load || oc.Enabled && oc.Window == 0) {
		c.Fail()
	}
}

// options turns a decoded configuration back into the options that
// built the cluster, for buildOptions to validate and resolve exactly as
// NewCluster does.
func (o *clusterOptions) options() []Option {
	opts := []Option{WithSeed(o.Seed), WithWorkload(o.workload), WithEpochLength(o.EpochLength),
		WithProtocol(o.Protocol), WithLink(LinkParams(o.Link))}
	// Zero durations are the unset defaults, which the options reject.
	if o.DetectTimeout != 0 {
		opts = append(opts, WithDetectTimeout(o.DetectTimeout))
	}
	opts = append(opts, WithBackups(o.Backups))
	opts = append(opts, WithDiskLatency(o.Disk.ReadLatency, o.Disk.WriteLatency))
	for _, d := range o.ExtraDisks {
		opts = append(opts, WithDisk(DiskSpec{ReadLatency: d.ReadLatency, WriteLatency: d.WriteLatency}))
	}
	if len(o.Terminal) > 0 {
		script := make([]TerminalInput, len(o.Terminal))
		for i, ev := range o.Terminal {
			script[i] = TerminalInput{At: ev.At, Data: string(ev.Data)}
		}
		opts = append(opts, WithTerminal(script...))
	}
	if cl := o.ClientLoad; cl != nil {
		opts = append(opts, WithClientLoad(ClientLoad{Clients: cl.Clients, PayloadWords: cl.PayloadWords,
			Start: cl.Start, MeanGap: cl.MeanGap, Timeout: cl.Timeout}))
	}
	if oc := o.OutputCommit; oc.Enabled {
		opts = append(opts, WithOutputCommit(OutputCommit{Window: oc.Window, Adaptive: oc.Adaptive}))
	}
	return opts
}

func (p *LinkParams) code(c *snapshot.Codec) {
	c.String(&p.Name)
	c.I64(&p.BitsPerSecond)
	c.I64((*int64)(&p.Latency))
	c.Int(&p.MTU)
	c.Int(&p.FrameOverhead)
	c.Int(&p.PerMessageFrames)
	c.I64((*int64)(&p.SetupTime))
}

func (p *pausePoint) code(c *snapshot.Codec) {
	c.U8((*uint8)(&p.kind))
	c.I64((*int64)(&p.time))
	c.U64(&p.commits)
}

func (e *journalEntry) code(c *snapshot.Codec) {
	e.pause.code(c)
	c.U8((*uint8)(&e.action))
	c.Int(&e.backup)
	q := &e.quality
	c.I64(&q.BitsPerSecond)
	c.I64((*int64)(&q.Latency))
	c.Int(&q.MTU)
	c.Int(&q.DropNext)
	e.link.code(c)
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
	// The blob is dead once Restore returns: its sections are only
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

	var cp checkpoint
	cp.code(sr.Codec())
	if err := sr.Done(); err != nil {
		return nil, fmt.Errorf("hft: Restore: %w", err)
	}
	o, err := buildOptions(cp.config.options())
	if err != nil {
		return nil, fmt.Errorf("hft: Restore: %w: %w", ErrSnapshotCorrupt, err)
	}

	c := newCluster(o)
	c.journal = cp.journal
	for i, e := range cp.journal {
		if err := c.replayTo(e.pause); err != nil {
			c.Close()
			return nil, fmt.Errorf("hft: Restore: replaying journal entry %d: %w", i, err)
		}
		if err := c.replayAction(e); err != nil {
			c.Close()
			return nil, fmt.Errorf("hft: Restore: replaying journal entry %d: %w", i, err)
		}
	}
	if err := c.replayTo(cp.pause); err != nil {
		c.Close()
		return nil, fmt.Errorf("hft: Restore: %w", err)
	}
	c.pause = cp.pause

	if err := c.eng.VerifySections(cp.sections); err != nil {
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
		if err := checkLink(e.link); err != nil {
			return fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
		}
		_, err := c.eng.AddBackup(session.AddBackupConfig{Link: netsim.LinkConfig(e.link)})
		return err
	}
	return fmt.Errorf("%w: unknown journal action %d", ErrSnapshotCorrupt, e.action)
}
