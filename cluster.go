package hft

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
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
	so := o.Options
	so.Observer = c.publish
	c.eng = session.New(so)
	return c
}

// ErrClosed reports use of a closed Cluster.
var ErrClosed = errors.New("hft: cluster is closed")

// ErrCompleted reports a perturbation applied after the workload
// completed (Done reports true): there is no live cluster left to
// perturb. FailBackup, SetLinkQuality and AddBackup return it;
// FailPrimary, which predates error returns, documents the same
// condition as a non-journaling no-op. It is the session engine's own
// sentinel. Test with errors.Is.
var ErrCompleted = session.ErrCompleted

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
	done := c.eng.Done()
	err := c.eng.RunFor(sim.Time(d))
	// A call that cannot advance keeps the pause coordinate, as a no-op
	// RunUntil does (see pauseAtBoundary): "time now+d" names an earlier
	// kernel state than the one the session is paused in — for d = 0,
	// the instant's events up to the boundary instead of all of them —
	// and a completed session is paused at its completion, not at a time
	// it never reached.
	if d > 0 && !done {
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
	sums := c.eng.Snapshot()
	return Result{
		Time:                 r.Time,
		Checksum:             r.Guest.Checksum,
		Console:              r.Console,
		Promoted:             r.Promoted,
		Divergences:          sums.Divergences,
		MessagesSent:         r.PrimaryStats.MessagesSent,
		UncertainSynthesized: sums.UncertainSynthesized,
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
func (c *Cluster) ServiceLatencies() (ServiceLatencies, bool) { return c.eng.ServiceLatencies() }

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
type ServiceLatencies = obs.ServiceLatencies

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
// ErrCompleted; an index below 1 is an error whether or not it has.
// Failstopping an already-failed backup is a no-op (a
// dead processor cannot die again) and is not re-journaled.
func (c *Cluster) FailBackup(i int) error {
	if c.closed {
		return ErrClosed
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
	ao := addBackupOptions{link: LinkParams(c.opts.Link)}
	for _, opt := range opts {
		if opt == nil {
			return 0, errors.New("hft: nil AddBackupOption")
		}
		if err := opt(&ao); err != nil {
			return 0, err
		}
	}
	prePause := c.pause
	prePos := c.position()
	n, err := c.eng.AddBackup(session.AddBackupConfig{Link: netsim.LinkConfig(ao.link)})
	if err != nil {
		c.pauseAtBoundary(prePos)
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
		p, err := checkLink(m)
		o.link = p
		return err
	}
}

// record appends a journal entry at the current pause position.
func (c *Cluster) record(e journalEntry) {
	e.pause = c.pause
	c.journal = append(c.journal, e)
}

// Snapshot captures the cluster's observable state at the current
// virtual time — valid mid-run, not just at completion.
func (c *Cluster) Snapshot() Snapshot { return c.eng.Snapshot() }

// Snapshot is a point-in-time view of a running (or completed) cluster.
type Snapshot = obs.Snapshot

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

// publish fans an event out to the subscribers (installed as the
// engine's observer; runs on the driving goroutine). With no subscribers
// it is a single atomic load.
func (c *Cluster) publish(ev Event) {
	if c.nsubs.Load() == 0 {
		return
	}
	c.subMu.Lock()
	subs := c.subs
	c.subMu.Unlock()
	for _, s := range subs {
		s.publish(ev)
	}
}

// Event is one observation from a running cluster.
type Event = obs.Event

// EventKind enumerates cluster events.
type EventKind = obs.EventKind

// DiskOp describes one EventDiskOp.
type DiskOp = obs.DiskOp

// Cluster event kinds; see obs for each one's payload.
const (
	EventEpochCommitted     = obs.EventEpochCommitted
	EventBackupEpoch        = obs.EventBackupEpoch
	EventPromoted           = obs.EventPromoted
	EventDivergence         = obs.EventDivergence
	EventFailstop           = obs.EventFailstop
	EventLinkQualityChanged = obs.EventLinkQualityChanged
	EventDiskOp             = obs.EventDiskOp
	EventCompleted          = obs.EventCompleted
	EventBackupAdded        = obs.EventBackupAdded
	EventTerminalInput      = obs.EventTerminalInput
	EventNetRequest         = obs.EventNetRequest
	EventOutputCommitted    = obs.EventOutputCommitted
)

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
// channel's capacity it yields the processor: the simulation never
// enters the Go scheduler (its processes are steps called on the running
// goroutine), so on one P this is the pump's and a reading consumer's
// only chance to run before
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
