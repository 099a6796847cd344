package hft

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/scsi"
	"repro/internal/session"
	"repro/internal/sim"
)

// Cluster is a long-lived, replicated virtual machine session: a
// primary and its backups under the paper's coordination protocols,
// resident in virtual time. A Cluster boots lazily, advances under
// caller control (RunFor, RunUntil, Wait), accepts live perturbations
// while it runs (FailPrimary, FailBackup, SetLinkQuality), and exposes
// observation as first-class values — a Snapshot of epoch/protocol/IO
// statistics at any virtual time and a subscribable Events stream. With
// the Bare option it is the single unreplicated machine instead.
//
// A Cluster must be driven from a single goroutine. The channels
// returned by Events may be consumed from any goroutine.
type Cluster struct {
	eng  *session.Engine
	opts *clusterOptions

	// pause is the session's current replayable position and journal is
	// the ordered log of live perturbations applied so far — together
	// with the (deterministic) configuration they ARE the session state,
	// which is what Save serializes and Restore replays. See save.go.
	pause   pausePoint
	journal []journalEntry

	subMu  sync.Mutex
	subs   []*subscriber
	nsubs  atomic.Int32 // publish's lock-free fast path when nobody listens
	closed bool
}

// NewCluster assembles a session from functional options. The
// configuration is validated eagerly — an unknown link, a negative
// backup count, a failure schedule that exceeds the replica set, or a
// zero seed fail here, not inside a later run. The simulation itself
// is constructed lazily, on the first advancement.
func NewCluster(opts ...Option) (*Cluster, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return newCluster(o), nil
}

// newCluster assembles a session from resolved options (shared between
// NewCluster and Restore).
func newCluster(o *clusterOptions) *Cluster {
	c := &Cluster{opts: o}
	c.eng = session.New(session.Options{
		Seed:          o.seed,
		Program:       o.sessionProgram(),
		Bare:          o.bare,
		Disk:          o.diskConfig(),
		ExtraDisks:    o.extraDiskConfigs(),
		Terminal:      o.terminalScript(),
		NIC:           o.nic,
		ClientLoad:    o.clientLoadConfig(),
		EpochLength:   o.epochLength,
		Protocol:      o.protocol,
		Link:          netsim.LinkConfig(o.link.LinkParams()),
		FailPrimaryAt: sim.Time(o.failPrimaryAt),
		DetectTimeout: sim.Time(o.detectTimeout),
		Backups:       o.backups,
		FailBackupAt:  o.failBackupTimes(),
		Observer:      c.publish,
		OutputCommit:  o.outputCommitConfig(),
	})
	return c
}

// ErrClosed reports use of a closed Cluster.
var ErrClosed = errors.New("hft: cluster is closed")

// ErrCompleted reports a perturbation applied after the workload
// completed (Done reports true): there is no live cluster left to
// perturb. FailBackup, SetLinkQuality and AddBackup return it;
// FailPrimary, which predates error returns, documents the same
// condition as a non-journaling no-op. Test with errors.Is.
var ErrCompleted = errors.New("hft: workload already complete")

// ErrStalled reports a wedged coordinator: the session's scheduler
// kept dispatching but virtual time stopped advancing. The underlying
// error names the blocked process. Test with errors.Is.
var ErrStalled = session.ErrStalled

// Now returns the session's current virtual time.
func (c *Cluster) Now() Duration { return c.eng.Now() }

// Done reports whether the guest workload has completed.
func (c *Cluster) Done() bool { return c.eng.Done() }

// RunFor boots the cluster if needed and advances it by d of virtual
// time, then reports the resulting state. Advancing a completed
// session, or by d <= 0, is a no-op. If the bounded-progress watchdog
// trips (virtual time pinned while the scheduler spins), RunFor returns
// the snapshot taken at the stall alongside an error matching
// ErrStalled.
func (c *Cluster) RunFor(d Duration) (Snapshot, error) {
	if c.closed {
		return Snapshot{}, ErrClosed
	}
	target := Duration(c.eng.Now()) + d
	err := c.eng.RunFor(sim.Time(d))
	// A call that cannot advance keeps the pause coordinate, as a no-op
	// RunUntil does (see pauseAtBoundary): "time now+d" names an earlier
	// kernel state than the one the session is paused in — for d = 0,
	// the instant's events up to the boundary instead of all of them.
	if d > 0 {
		c.pause = pausePoint{kind: pauseAtTime, time: target}
	}
	return c.Snapshot(), err
}

// RunUntil advances the cluster until pred holds. The predicate is
// evaluated before starting and then at every epoch commit — the
// protocol's natural observation points — so the session pauses on a
// consistent boundary.
//
// Boundary sampling is the contract, not an approximation: a condition
// that becomes true and false again WITHIN one epoch — a transient
// counter value, a virtual-time window narrower than the epoch — is
// never observed, because between commits the simulation is indivisible
// from the session's point of view. At large epoch lengths (the paper
// evaluates up to 32K instructions; HP-UX tolerates 385K) an epoch
// spans hundreds of microseconds of virtual time, so predicates must be
// monotonic (once true, stays true) or phrased over cumulative
// quantities (epoch count, instruction count, message totals) to be
// reliably caught. TestRunUntilBoundarySampling pins this behavior.
//
// RunUntil returns when pred holds or the workload completes,
// whichever is first. The predicate must observe the Snapshot only —
// mutating the cluster from inside a predicate is not supported.
func (c *Cluster) RunUntil(pred func(Snapshot) bool) (Snapshot, error) {
	if c.closed {
		return Snapshot{}, ErrClosed
	}
	pre := c.position()
	err := c.eng.RunUntil(func() bool { return pred(c.Snapshot()) })
	c.pauseAtBoundary(pre)
	return c.Snapshot(), err
}

// position is the cluster's replay-relevant coordinate: how far the
// session has advanced, in every dimension a pause point can encode.
type position struct {
	now     Duration
	commits uint64
	done    bool
}

func (c *Cluster) position() position {
	return position{now: Duration(c.eng.Now()), commits: c.eng.Commits(), done: c.eng.Done()}
}

// pauseAtBoundary records the current epoch-commit pause position. pre
// is the position when the advancing call began: if the session did not
// move — the predicate was already true, the workload already done —
// the previous pause coordinate is kept. Rewriting it would rewind the
// replay: a commit ordinal replays to the FIRST instant it was reached,
// which precedes a later time-pause at the same ordinal (run past a
// commit with RunFor, then let a no-op RunUntil overwrite the pause,
// and a restored session would re-apply later perturbations — and
// verify its capture — at the earlier instant).
func (c *Cluster) pauseAtBoundary(pre position) {
	if c.position() == pre {
		return
	}
	if c.eng.Done() {
		c.pause = pausePoint{kind: pauseAtDone}
		return
	}
	c.pause = pausePoint{kind: pauseAtCommit, commits: c.eng.Commits()}
}

// Wait drives the cluster until the guest workload completes, then
// returns the terminal Result. Cancellation is honored at epoch
// boundaries: if ctx is canceled the session pauses (resumable by any
// advancement method) and Wait returns ctx's error.
func (c *Cluster) Wait(ctx context.Context) (Result, error) {
	if c.closed {
		return Result{}, ErrClosed
	}
	var cancelled func() bool
	if ctx != nil && ctx.Done() != nil {
		cancelled = func() bool { return ctx.Err() != nil }
	}
	pre := c.position()
	err := c.eng.RunToCompletion(cancelled)
	c.pauseAtBoundary(pre)
	if err != nil {
		return Result{}, err
	}
	if !c.eng.Done() {
		return Result{}, ctx.Err()
	}
	return c.Result()
}

// Result returns the terminal report. It errors until the workload has
// completed (use Snapshot for live observation).
func (c *Cluster) Result() (Result, error) {
	r, err := c.eng.Result()
	if err != nil {
		return Result{}, err
	}
	return Result{
		Time:                 r.Time,
		Checksum:             r.Guest.Checksum,
		Console:              r.Console,
		Promoted:             r.Promoted,
		Divergences:          r.BackupStats.Divergences,
		MessagesSent:         r.PrimaryStats.MessagesSent,
		UncertainSynthesized: r.BackupStats.UncertainSynth,
		GuestPanic:           r.Guest.Panic,
		NetReplies:           r.NetReplies,
	}, nil
}

// ServiceLatencies reports the client-observed request latency
// distribution of the simulated client population — virtual time from a
// request's FIRST transmission to its reply's client-side arrival, so
// retransmission waits during a failover land in the tail instead of
// disappearing. The second return is false when the cluster has no
// client load (or has not booted).
func (c *Cluster) ServiceLatencies() (ServiceLatencies, bool) {
	cs := c.eng.Clients()
	if cs == nil {
		return ServiceLatencies{}, false
	}
	m := cs.Measure()
	sl := ServiceLatencies{
		Requests:    m.Requests,
		Answered:    m.Answered,
		Retransmits: m.Retransmits,
		P50:         Duration(m.P50),
		P99:         Duration(m.P99),
		P999:        Duration(m.P999),
		Max:         Duration(m.Max),
	}
	if lats := c.eng.CommitLatencies(); len(lats) > 0 {
		sorted := make([]sim.Time, len(lats))
		copy(sorted, lats)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		q := func(p float64) Duration {
			i := int(p * float64(len(sorted)-1))
			return Duration(sorted[i])
		}
		sl.CommitP50, sl.CommitP99 = q(0.50), q(0.99)
	}
	return sl, true
}

// ServiceBlackout reports the client-visible service gap around virtual
// time at — typically a failover instant: the interval from the last
// reply arriving at or before it to the first reply arriving after it.
// Zero when the cluster has no client load or no reply follows at.
func (c *Cluster) ServiceBlackout(at Duration) Duration {
	cs := c.eng.Clients()
	if cs == nil {
		return 0
	}
	return Duration(cs.Blackout(sim.Time(at)))
}

// ServiceLatencies is the client-observed latency distribution of a
// cluster's simulated client population (virtual time).
type ServiceLatencies struct {
	// Requests/Answered count distinct requests issued and replies
	// that reached a client; Retransmits counts duplicate transmissions
	// forced by the timeout.
	Requests    int
	Answered    int
	Retransmits uint64
	// P50/P99/P999/Max are latency quantiles over answered requests.
	P50  Duration
	P99  Duration
	P999 Duration
	Max  Duration
	// CommitP50/CommitP99 are output-commit latency quantiles — virtual
	// time from an epoch's first deferred environment output to its
	// release on acknowledgment. Zero unless WithOutputCommit is on and
	// at least one epoch released output.
	CommitP50 Duration
	CommitP99 Duration
}

// FailPrimary failstops the primary's processor at the current virtual
// time: execution ceases and all its communication is severed, exactly
// as WithFailPrimaryAt would have done on a schedule. The backup
// detects the silence, finishes the failover epoch, synthesizes
// uncertain interrupts for outstanding I/O (rule P7) and takes over.
//
// After the workload completes (Done reports true), or if the primary
// already failed, FailPrimary is a no-op and is NOT journaled — a
// checkpoint never records a perturbation that had no effect.
func (c *Cluster) FailPrimary() {
	if c.closed {
		return
	}
	if applied, _ := c.eng.FailNode(0); applied {
		c.record(journalEntry{action: actFailPrimary})
	}
}

// FailBackup failstops backup i (1-based priority index) at the
// current virtual time. After the workload completes it returns
// ErrCompleted. Failstopping an already-failed backup is a no-op (a
// dead processor cannot die again) and is not re-journaled.
func (c *Cluster) FailBackup(i int) error {
	if c.closed {
		return ErrClosed
	}
	if c.eng.Done() {
		return ErrCompleted
	}
	applied, err := c.failBackup(i)
	if applied {
		c.record(journalEntry{action: actFailBackup, backup: i})
	}
	return err
}

// failBackup failstops backup i without journaling it (FailBackup and
// journal replay share it), reporting whether a live processor stopped.
func (c *Cluster) failBackup(i int) (applied bool, err error) {
	if i < 1 {
		return false, fmt.Errorf("hft: no backup %d (backups are numbered from 1)", i)
	}
	return c.eng.FailNode(i)
}

// SetLinkQuality degrades (or restores) every inter-hypervisor link
// mid-run: messages already serialized keep their scheduled delivery;
// future protocol traffic pays the new costs. Links created by a LATER
// AddBackup start at the configured link model; re-apply the quality
// after reintegration if the degradation should cover the new channels
// too. After the workload completes it returns ErrCompleted (there are
// no links left to degrade).
func (c *Cluster) SetLinkQuality(q LinkQuality) error {
	if c.closed {
		return ErrClosed
	}
	if c.eng.Done() {
		return ErrCompleted
	}
	if err := c.eng.SetLinkQuality(netsim.Quality(q)); err != nil {
		return err
	}
	c.record(journalEntry{action: actSetLink, quality: q})
	return nil
}

// AddBackup reintegrates a new backup into the running cluster by live
// state transfer — the repair half of the paper's fault-tolerance
// story (§5): after a failstop and promotion the system runs
// unprotected until a repaired processor rejoins. The session advances
// to the acting coordinator's next epoch commit (virtual time moves),
// captures its complete virtual-machine state, and ships the image
// through the simulated link, so the transfer is charged to virtual
// time and shows up in normalized performance. The cluster keeps
// executing while the image is in flight; the new backup — at the
// lowest priority, one past the current highest index — installs it
// and follows the protocol stream from the transferred boundary on,
// trailing the acting coordinator by roughly the transfer duration for
// the rest of the run. Its receivers acknowledge the protocol stream
// from the first instant (the joining hypervisor is alive; only the
// guest image is in transit), so neither protocol's acknowledgement
// waits stall on the migration. If the transfer's source processor
// failstops with the image in flight, the reintegration is lost and
// the joiner withdraws.
//
// AddBackup returns the new node's index (primary = 0, backups from 1).
func (c *Cluster) AddBackup(opts ...AddBackupOption) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	ao := addBackupOptions{link: c.opts.link.LinkParams()}
	for _, opt := range opts {
		if opt == nil {
			return 0, errors.New("hft: nil AddBackupOption")
		}
		if err := opt(&ao); err != nil {
			return 0, err
		}
	}
	if c.eng.Done() {
		return 0, ErrCompleted
	}
	prePause := c.pause
	prePos := c.position()
	n, err := c.eng.AddBackup(session.AddBackupConfig{Link: netsim.LinkConfig(ao.link)})
	if err != nil {
		c.pauseAtBoundary(prePos)
		if errors.Is(err, session.ErrCompleted) {
			err = ErrCompleted
		}
		return 0, err
	}
	c.journal = append(c.journal, journalEntry{pause: prePause, action: actAddBackup, link: ao.link})
	c.pauseAtBoundary(prePos)
	return n, nil
}

// AddBackupOption configures one AddBackup call.
type AddBackupOption func(*addBackupOptions) error

type addBackupOptions struct {
	link LinkParams
}

// AddBackupLink sets the channel model for the new node's links to
// every existing node — the state transfer itself and all subsequent
// protocol traffic to the joiner travel over it. Default: the
// cluster's configured link model.
func AddBackupLink(m LinkModel) AddBackupOption {
	return func(o *addBackupOptions) error {
		if m == nil {
			return errors.New("hft: nil LinkModel")
		}
		p := m.LinkParams()
		if p.BitsPerSecond <= 0 {
			return fmt.Errorf("hft: link %q has non-positive bandwidth %d", p.Name, p.BitsPerSecond)
		}
		if p.Latency < 0 || p.SetupTime < 0 || p.MTU < 0 {
			return fmt.Errorf("hft: link %q has negative parameters", p.Name)
		}
		o.link = p
		return nil
	}
}

// record appends a journal entry at the current pause position.
func (c *Cluster) record(e journalEntry) {
	e.pause = c.pause
	c.journal = append(c.journal, e)
}

// Snapshot captures the cluster's observable state at the current
// virtual time — valid mid-run, not just at completion.
func (c *Cluster) Snapshot() Snapshot {
	s := c.eng.Snapshot()
	return Snapshot{
		Now:                  Duration(s.Now),
		Booted:               s.Booted,
		Done:                 s.Done,
		Nodes:                s.Nodes,
		Acting:               s.Acting,
		Epochs:               s.Epochs,
		Commits:              s.Commits,
		GuestInstructions:    s.GuestInstructions,
		Promoted:             s.Promoted,
		Halted:               s.Halted,
		MessagesSent:         s.MessagesSent,
		BytesSent:            s.BytesSent,
		AcksReceived:         s.AcksReceived,
		IntsForwarded:        s.IntsForwarded,
		Divergences:          s.Divergences,
		UncertainSynthesized: s.UncertainSynthesized,
		PeersExcluded:        s.PeersExcluded,
		DiskOps:              s.DiskOps,
		DiskUncertain:        s.DiskUncertain,
		Console:              s.Console,
		NetRequests:          s.NetRequests,
		NetAnswered:          s.NetAnswered,
		NetRetransmits:       s.NetRetransmits,
	}
}

// Snapshot is a point-in-time view of a running (or completed) cluster.
type Snapshot struct {
	// Now is the virtual time of the observation.
	Now Duration
	// Booted reports whether the simulation has been constructed.
	Booted bool
	// Done reports whether the guest workload has completed.
	Done bool
	// Nodes is the replica count (primary + backups).
	Nodes int
	// Acting is the node currently interacting with the environment
	// (0 until a failover, then the promoted backup's index).
	Acting int
	// Epochs is the acting coordinator's committed epoch count.
	Epochs uint64
	// Commits is the cumulative count of acting-coordinator epoch
	// commits since boot — the session's replayable pause coordinate.
	// Unlike Epochs it never resets across failovers: a promoted
	// backup's first commit continues the sequence, so "commit #N"
	// names the same kernel state on every replay.
	Commits uint64
	// GuestInstructions is the acting node's retired instruction count.
	GuestInstructions uint64
	// Promoted reports whether any failover has occurred.
	Promoted bool
	// Halted reports whether the acting node's guest has halted.
	Halted bool
	// Protocol counters, summed over every engine that has acted.
	MessagesSent         uint64
	BytesSent            uint64
	AcksReceived         uint64
	IntsForwarded        uint64
	Divergences          uint64
	UncertainSynthesized uint64
	// PeersExcluded counts replicas a coordinator dropped from its
	// acknowledgement gates after prolonged ack silence (the liveness
	// backstop, 10x the detect timeout). Nonzero means the replica set
	// is effectively smaller than configured: a subsequent coordinator
	// failstop in that state can lose the computation.
	PeersExcluded uint64
	// Environment counters.
	DiskOps       uint64
	DiskUncertain uint64
	// Console is the environment-visible console transcript so far.
	Console string
	// Network-service counters (zero without WithClientLoad):
	// NetRequests counts distinct requests issued by the client
	// population, NetAnswered those whose reply reached a client, and
	// NetRetransmits the duplicate transmissions its timeouts forced.
	NetRequests    int
	NetAnswered    int
	NetRetransmits uint64
}

// Close tears the session down, terminating its simulation and closing
// every Events channel. The terminal Result, if the workload completed,
// remains readable. Idempotent.
func (c *Cluster) Close() error {
	c.subMu.Lock()
	already := c.closed
	c.closed = true
	subs := c.subs
	c.subs = nil
	c.nsubs.Store(0)
	c.subMu.Unlock()
	if already {
		return nil
	}
	c.eng.Close()
	for _, s := range subs {
		s.close()
	}
	return nil
}

// Events returns a subscription to the cluster's live event stream:
// epoch commits, backup digest checks, promotions, uncertain-interrupt
// synthesis, divergences, injected failures, link-quality changes, disk
// operations and completion. Each call returns an independent channel
// carrying every event from the subscription on; the channel is
// unbounded (a slow consumer cannot stall the simulation) and closes
// when the cluster is closed. A consumer that stops reading forfeits
// whatever backlog remains at Close. Safe to consume from any
// goroutine.
func (c *Cluster) Events() <-chan Event {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	s := newSubscriber()
	if c.closed {
		s.close()
		return s.ch
	}
	c.subs = append(c.subs, s)
	c.nsubs.Store(int32(len(c.subs)))
	return s.ch
}

// publish fans a session event out to the subscribers (installed as
// the engine's observer; runs on the driving goroutine). With no
// subscribers it is a single atomic load.
func (c *Cluster) publish(ev session.Event) {
	if c.nsubs.Load() == 0 {
		return
	}
	c.subMu.Lock()
	subs := c.subs
	c.subMu.Unlock()
	if len(subs) == 0 {
		return
	}
	pub := publicEvent(ev)
	for _, s := range subs {
		s.publish(pub)
	}
}

// EventKind enumerates cluster events.
type EventKind int

// Cluster event kinds.
const (
	// EventEpochCommitted: the acting coordinator finished an epoch
	// boundary (Tme shipped, buffered interrupts delivered).
	EventEpochCommitted EventKind = iota
	// EventBackupEpoch: a following backup completed an epoch's
	// boundary processing, including its divergence check.
	EventBackupEpoch
	// EventPromoted: a backup detected coordinator failure and took
	// over (rules P6/P7).
	EventPromoted
	// EventDivergence: a backup's state digest disagreed with the
	// coordinator's (always absent unless deterministic replay is
	// broken — the §3.2 hazard).
	EventDivergence
	// EventFailstop: a processor failstop was injected.
	EventFailstop
	// EventLinkQualityChanged: SetLinkQuality took effect.
	EventLinkQualityChanged
	// EventDiskOp: the shared disk completed an operation.
	EventDiskOp
	// EventCompleted: the guest workload finished everywhere.
	EventCompleted
	// EventBackupAdded: AddBackup reintegrated a new backup by live
	// state transfer (Node is its index, TransferBytes the image size
	// shipped through the link).
	EventBackupAdded
	// EventTerminalInput: the environment delivered scripted terminal
	// input to the shared console (TerminalData returns the bytes;
	// Device reports "console").
	EventTerminalInput
	// EventNetRequest: the cluster's NIC accepted a distinct client
	// request frame (Request is its id; Device reports "nic").
	// Retransmissions of queued or answered requests are deduped before
	// this point and never emit.
	EventNetRequest
	// EventOutputCommitted: the output-commit engine (WithOutputCommit)
	// released an epoch's deferred environment output after its state
	// message was acknowledged by every live peer. Outputs is the number
	// of operations released, CommitLatency the generation-to-release
	// delay of the epoch's first output (zero when the epoch produced
	// none), Occupancy the epochs still awaiting acknowledgment.
	EventOutputCommitted
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventEpochCommitted:
		return "epoch-committed"
	case EventBackupEpoch:
		return "backup-epoch"
	case EventPromoted:
		return "promoted"
	case EventDivergence:
		return "divergence"
	case EventFailstop:
		return "failstop"
	case EventLinkQualityChanged:
		return "link-quality"
	case EventDiskOp:
		return "disk-op"
	case EventCompleted:
		return "completed"
	case EventBackupAdded:
		return "backup-added"
	case EventTerminalInput:
		return "terminal-input"
	case EventNetRequest:
		return "net-request"
	case EventOutputCommitted:
		return "output-committed"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// DiskOp describes one EventDiskOp.
type DiskOp struct {
	// Host is the adapter that issued the operation (node index).
	Host int
	// Write distinguishes writes from reads.
	Write bool
	// Block is the operated block number.
	Block uint32
	// Uncertain reports a CHECK_CONDITION completion (IO2).
	Uncertain bool
	// Committed reports whether the operation actually took effect.
	Committed bool
}

// Event is one observation from a running cluster.
type Event struct {
	// Kind discriminates the payload fields below.
	Kind EventKind
	// Time is the virtual time of the occurrence.
	Time Duration
	// Node is the replica concerned (primary = 0, backup i = i).
	Node int
	// Epoch is the protocol epoch concerned (epoch-scoped kinds).
	Epoch uint64

	// Tme is the clock value shipped at an epoch commit.
	Tme uint32
	// Halted marks the committing epoch as the guest's last.
	Halted bool
	// DigestMatch reports a backup's divergence-check outcome.
	DigestMatch bool
	// Uncertain is the number of uncertain interrupts synthesized at a
	// promotion (rule P7).
	Uncertain int
	// Digests carries the mismatched state digests of a divergence:
	// coordinator's, then the local one.
	Digests [2]uint64
	// Disk describes a disk operation.
	Disk DiskOp
	// TransferBytes is the state-transfer image size of a backup-added
	// event.
	TransferBytes uint64
	// Request is the request id of an EventNetRequest.
	Request uint32
	// Outputs is the number of deferred operations an
	// EventOutputCommitted released; CommitLatency the delay from the
	// epoch's first output to the release; Occupancy the epochs still
	// in the acknowledgment window afterwards.
	Outputs       int
	CommitLatency Duration
	Occupancy     int

	// dev tags device-scoped events with the stable device identifier
	// ("disk0", "disk1", "console"); see Device.
	dev string
	// termData carries a terminal-input event's bytes; see TerminalData.
	termData string
}

// Device returns the stable device identifier an event concerns:
// "disk0", "disk1", ... for EventDiskOp, "console" for
// EventTerminalInput, and "" for events that are not device-scoped.
func (e Event) Device() string { return e.dev }

// TerminalData returns the input bytes of an EventTerminalInput ("" for
// other kinds).
func (e Event) TerminalData() string { return e.termData }

// String renders the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case EventEpochCommitted:
		return fmt.Sprintf("[%v] node%d epoch %d committed (tme=%d halted=%v)", e.Time, e.Node, e.Epoch, e.Tme, e.Halted)
	case EventBackupEpoch:
		return fmt.Sprintf("[%v] node%d epoch %d checked (match=%v)", e.Time, e.Node, e.Epoch, e.DigestMatch)
	case EventPromoted:
		return fmt.Sprintf("[%v] node%d PROMOTED at epoch %d (%d uncertain synthesized)", e.Time, e.Node, e.Epoch, e.Uncertain)
	case EventDivergence:
		return fmt.Sprintf("[%v] node%d DIVERGED at epoch %d (%x != %x)", e.Time, e.Node, e.Epoch, e.Digests[0], e.Digests[1])
	case EventFailstop:
		return fmt.Sprintf("[%v] node%d failstopped", e.Time, e.Node)
	case EventLinkQualityChanged:
		return fmt.Sprintf("[%v] link quality changed", e.Time)
	case EventDiskOp:
		op := "read"
		if e.Disk.Write {
			op = "write"
		}
		return fmt.Sprintf("[%v] disk %s block %d by node%d (uncertain=%v)", e.Time, op, e.Disk.Block, e.Disk.Host, e.Disk.Uncertain)
	case EventCompleted:
		return fmt.Sprintf("[%v] workload completed (acting node%d)", e.Time, e.Node)
	case EventBackupAdded:
		return fmt.Sprintf("[%v] node%d JOINED after epoch %d (%d-byte state transfer)", e.Time, e.Node, e.Epoch, e.TransferBytes)
	case EventTerminalInput:
		return fmt.Sprintf("[%v] terminal input %q", e.Time, e.termData)
	case EventNetRequest:
		return fmt.Sprintf("[%v] net request %d accepted", e.Time, e.Request)
	case EventOutputCommitted:
		return fmt.Sprintf("[%v] node%d epoch %d output committed (%d ops, latency %v, %d in flight)",
			e.Time, e.Node, e.Epoch, e.Outputs, e.CommitLatency, e.Occupancy)
	}
	return fmt.Sprintf("[%v] %s", e.Time, e.Kind)
}

// publicEvent converts a session event.
func publicEvent(ev session.Event) Event {
	out := Event{
		Time:  Duration(ev.At),
		Node:  ev.Node,
		Epoch: ev.Epoch,
	}
	switch ev.Kind {
	case session.EventEpochCommitted:
		out.Kind = EventEpochCommitted
		out.Tme = ev.Tme
		out.Halted = ev.Halted
	case session.EventBackupEpoch:
		out.Kind = EventBackupEpoch
		out.DigestMatch = ev.Match
	case session.EventPromoted:
		out.Kind = EventPromoted
		out.Uncertain = ev.Count
	case session.EventDivergence:
		out.Kind = EventDivergence
		out.Digests = ev.Digests
	case session.EventFailstop:
		out.Kind = EventFailstop
	case session.EventLinkQuality:
		out.Kind = EventLinkQualityChanged
	case session.EventDiskOp:
		out.Kind = EventDiskOp
		out.Disk = DiskOp{
			Host:      ev.IO.Host,
			Write:     ev.IO.Cmd == scsi.CmdWrite,
			Block:     ev.IO.Block,
			Uncertain: ev.IO.Uncertain,
			Committed: ev.IO.Committed,
		}
		out.dev = fmt.Sprintf("disk%d", ev.Disk)
	case session.EventCompleted:
		out.Kind = EventCompleted
	case session.EventBackupAdded:
		out.Kind = EventBackupAdded
		out.TransferBytes = ev.Bytes
	case session.EventTerminalInput:
		out.Kind = EventTerminalInput
		out.dev = "console"
		out.termData = string(ev.Data)
	case session.EventNetRequest:
		out.Kind = EventNetRequest
		out.dev = "nic"
		out.Request = ev.Req
	case session.EventOutputCommitted:
		out.Kind = EventOutputCommitted
		out.Outputs = ev.Count
		out.CommitLatency = Duration(ev.Latency)
		out.Occupancy = ev.Occupancy
	}
	return out
}

// subscriber is one Events channel: an unbounded queue bridged to the
// channel by a pump goroutine, so the simulation never blocks on a
// slow consumer.
type subscriber struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  sim.Ring[Event] // ring: consumed slots are released, not pinned
	closed bool
	quit   chan struct{} // closed by close(); unblocks an in-flight send
	ch     chan Event
}

func newSubscriber() *subscriber {
	s := &subscriber{ch: make(chan Event, 64), quit: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.pump()
	return s
}

// publish queues ev and never blocks. Once the backlog has reached the
// channel's capacity it yields the processor: simulated process switches
// are coroutine switches that bypass the Go scheduler, so on one P this
// is the pump's and a reading consumer's only chance to run before
// sysmon preempts, and without it the queue keeps doubling. A consumer
// that is not reading leaves the pump blocked, and the yield returns at
// once.
func (s *subscriber) publish(ev Event) {
	s.mu.Lock()
	if !s.closed {
		s.queue.Push(ev)
	}
	backlog := s.queue.Len()
	s.mu.Unlock()
	s.cond.Signal()
	if backlog >= cap(s.ch) {
		runtime.Gosched()
	}
}

func (s *subscriber) close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.quit)
	}
	s.cond.Signal()
}

// pump drains the queue into the channel; after close it delivers the
// backlog to a consumer that keeps reading, then closes the channel. A
// consumer that has stopped reading forfeits the remaining backlog: each
// post-close send waits only a short grace period, so an abandoned
// subscription cannot leak its goroutine past teardown.
func (s *subscriber) pump() {
	var grace *time.Timer // one timer for the whole post-close drain
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		ev, ok := s.queue.Pop()
		closed := s.closed
		s.mu.Unlock()
		if !ok {
			close(s.ch)
			return
		}
		if !closed {
			select {
			case s.ch <- ev:
				continue
			case <-s.quit:
				// Closed while blocked on an unread channel: fall
				// through to the post-close grace for this event.
			}
		}
		if grace == nil {
			grace = time.NewTimer(100 * time.Millisecond)
			defer grace.Stop()
		} else {
			grace.Reset(100 * time.Millisecond)
		}
		select {
		case s.ch <- ev:
		case <-grace.C:
			close(s.ch)
			return
		}
	}
}
