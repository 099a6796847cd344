// Package session implements the long-lived replicated-cluster engine
// behind the public hft.Cluster API (and hftbench's §3.2 TLB ablation,
// the one caller that needs its machine knobs). A session Engine keeps the simulation resident: it boots
// lazily, advances under caller control in bounded slices, accepts live
// perturbations (failstops, link degradation) between — or, via
// scheduled events, during — slices, and exposes observation as
// first-class values (snapshots and an event stream) at any virtual
// time.
//
// Determinism contract: an Engine driven to completion produces the
// same results bit for bit regardless of how the run is sliced.
// Construction order (kernel, platform, guest boot per node, replicas in
// node order, scheduled failures, process spawns) is therefore fixed —
// random-stream derivation and event scheduling order follow from it —
// and observation hooks never spend virtual time.
//
// There is one topology and one Boot: a platform.Cluster, with one
// replication.Replica per node in Engine.reps, indexed by node — a
// replica's role is only its position, so nothing here asks "primary or
// backup?". Options.Bare selects only what runs on node 0: the
// unvirtualized guest on a cluster of one (the paper's baseline, a
// different execution model rather than a role; reps stays empty) or the
// replicas over every node's hypervisor. The session also owns the two
// composite state formats and nothing else does: the checkpoint's
// section list (capture.go) and the AddBackup transfer blob
// (addbackup.go); what is inside a machine, hypervisor or replication
// section is that layer's own snapshot.go.
package session

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/clientsim"
	"repro/internal/console"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/scsi"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// GuestMemBytes is the physical RAM given to each simulated machine.
// The guest kernel's physical footprint tops out below 0x60040, so
// 1 MiB leaves an order-of-magnitude margin while keeping machine
// construction (zeroing RAM) cheap. Simulated timing and guest results
// are independent of RAM size; explicit machine overrides still win.
const GuestMemBytes = 1 << 20

// maxRunTime is the hang tripwire: a run that has not completed by this
// virtual time is declared wedged (the longest legitimate experiment
// finishes in minutes of virtual time).
const maxRunTime = 20000 * sim.Second

// stallLimit is the bounded-progress watchdog's dispatch budget: the
// scheduler passes virtual time may sit at ONE instant before the
// session declares the coordinator wedged (ErrStalled). Legitimate
// same-instant cascades — every node's boundary processing plus the
// message deliveries it triggers — are bounded by a few dispatches per
// node per message; 100k is orders of magnitude past any of them.
const stallLimit = 100000

// replicaConfig is what every replica of the set — a late joiner
// included — is built with. The coordinator-side acknowledgement-liveness
// bound sits generously past every backup's cascaded failure-detection
// timeout, so a genuinely partitioned peer is detected by its own timeout
// first and the coordinator's exclusion is strictly a liveness backstop.
func (e *Engine) replicaConfig() replication.Config {
	// Boot has already normalized the zero default onto o.DetectTimeout
	// before any replica (or a late joiner) is wired.
	return replication.Config{
		Protocol:      e.o.Protocol,
		OutputCommit:  e.o.OutputCommit,
		DetectTimeout: e.o.DetectTimeout,
		PeerTimeout:   10 * e.o.DetectTimeout,
	}
}

// machineConfig resolves the per-machine configuration: the RAM
// default, and the COW base image of the program's boot image. Every
// machine built from the returned config maps the same immutable frames
// — as does every other session booting the same program at the same
// RAM size, fleet-wide: the machine layer memoises images by (origin,
// words, RAM size), so resolving one costs a compare of the program
// words, never a RAM-sized buffer. Boot-time stores of bytes the image
// already holds are COW no-ops, so kernel text stays shared; a replica
// privatizes only the pages it actually dirties.
func (e *Engine) machineConfig() machine.Config {
	mc := e.o.Machine
	if mc.MemBytes == 0 {
		mc.MemBytes = GuestMemBytes
	}
	// A program that exceeds RAM keeps the zero image; boot reports the
	// overflow as ever.
	origin, words, _ := e.o.Program.Image()
	if uint64(origin)+4*uint64(len(words)) <= uint64(mc.MemBytes) {
		mc.Image = machine.ProgramImage(origin, words, mc.MemBytes)
	}
	return mc
}

// Program supplies the guest boot image, boot-time configuration, and
// result extraction — the plug point for workloads beyond the paper's
// three benchmarks. Implementations must be deterministic and must
// configure every replica identically.
type Program interface {
	// Image returns the guest memory image and entry point.
	Image() (origin uint32, words []uint32, entry uint32)
	// Setup writes boot-time parameters into a machine after the image
	// is loaded. It is called once per replica, before execution.
	Setup(m *machine.Machine)
	// Result extracts the guest-visible outcome after the guest halts.
	Result(m *machine.Machine) guest.Result
}

// workloadProgram adapts the built-in guest kernel + workload ABI.
type workloadProgram struct{ w guest.Workload }

func (wp workloadProgram) Image() (uint32, []uint32, uint32) {
	p := guest.Program()
	return p.Origin, p.Words, 0
}
func (wp workloadProgram) Setup(m *machine.Machine) { guest.Configure(m, wp.w) }
func (wp workloadProgram) Result(m *machine.Machine) guest.Result {
	return guest.ReadResult(m)
}

// WorkloadProgram returns the built-in Program: the paper's guest
// kernel configured with workload w.
func WorkloadProgram(w guest.Workload) Program { return workloadProgram{w: w} }

// Options configures an Engine.
type Options struct {
	Seed int64
	// Program is the guest every node boots (required).
	Program Program
	// Bare runs a single unvirtualized machine (the paper's baseline)
	// instead of a replicated group.
	Bare bool

	Disk scsi.DiskConfig
	// ExtraDisks configures shared disks 1..N-1 (multi-disk workloads;
	// disk i sits at the platform's DiskWindow(i)).
	ExtraDisks []scsi.DiskConfig
	// Terminal is the console's scripted input (empty: the console is
	// the historical write-only device).
	Terminal []console.Input
	// ClientLoad, when set, attaches the shared NIC to every node and
	// drives a simulated client population into it over its own access
	// link. The population's Requests must match the guest server
	// workload's Ops.
	ClientLoad  *clientsim.Config
	EpochLength uint64
	Protocol    replication.Protocol
	Link        netsim.LinkConfig
	// OutputCommit configures the output-commit latency engine (zero
	// value: off, classic lock-step protocol). Applied identically to
	// every replica, including late joiners.
	OutputCommit replication.OutputCommit

	FailPrimaryAt sim.Time
	DetectTimeout sim.Time
	Backups       int
	FailBackupAt  []sim.Time

	Machine       machine.Config
	NoTLBTakeover bool

	// OnDivergence, when set, observes backup digest mismatches instead
	// of panicking.
	OnDivergence func(epoch uint64, primary, backup uint64)

	// Observer, when set, receives the live event stream. It runs in
	// simulation context and must not block.
	Observer func(obs.Event)
}

// Result reports a completed run.
type Result struct {
	// Time is the workload completion time (virtual).
	Time sim.Time
	// Guest is the kernel's ABI report.
	Guest guest.Result
	// Console is the environment-visible console transcript.
	Console string
	// NetReplies is the NIC's reply transcript — every frame the acting
	// guest emitted (exactly once, in order), empty without a NIC. The
	// replication invariant: byte-identical to the bare run's.
	NetReplies string
	// Promoted reports whether a failover occurred.
	Promoted bool
	// PrimaryStats is node 0's protocol engine counters (zero for bare
	// runs); Snapshot sums every replica's.
	PrimaryStats replication.Stats
	// HVStats is the authoritative hypervisor's activity (zero for bare).
	HVStats hypervisor.Stats
}

// Engine is a resident simulation of one cluster (of one, when bare).
// It is not safe for concurrent use; drive it from one goroutine.
type Engine struct {
	o      Options
	k      *sim.Kernel
	booted bool
	closed bool

	// The one topology. What runs on it is Options.Bare's choice: the
	// unvirtualized guest on node 0 of a cluster of one (bare; reps stays
	// empty), or one replica per node, indexed by node.
	cluster *platform.Cluster
	bare    *hypervisor.Bare
	reps    []*replication.Replica

	// arena owns the cluster's buffers from Boot to Close (see arena.go);
	// transfers holds the writers of AddBackup's transfer blobs, which
	// live as long as the cluster.
	arena     *arena
	transfers []*snapshot.Writer

	// Network service (nil without Options.ClientLoad).
	nic       *nic.NIC
	clients   *clientsim.Sim
	clientNet *netsim.Duplex

	done     []sim.Time // per-node completion times
	finished bool
	endTime  sim.Time // virtual time the last process exited
	result   Result
	runErr   error

	// Running disk counters (fed by the device's OnOp hook, so
	// Snapshot never rescans the operation log).
	diskOps       uint64
	diskUncertain uint64

	// stopCheck, when set, is consulted at epoch commits; returning
	// true stops the kernel (bounded/predicate runs, cancellation).
	stopCheck func() bool

	// commits counts every acting-coordinator epoch commit since boot;
	// lastNode/lastEpoch/lastTme describe the most recent one. Commit
	// ordinals are the session's replayable pause coordinates: a run
	// paused "at commit #N" stops in exactly the same kernel state on
	// every replay.
	commits   uint64
	lastNode  int
	lastEpoch uint64
	lastTme   uint32

	// commitLats collects per-epoch output-commit latencies (virtual
	// time from an epoch's first deferred output to its release); only
	// epochs that actually produced output contribute a sample. Its
	// storage is the arena's; ServiceLatencies sorts it in place.
	commitLats []sim.Time
	// closedView is what Snapshot and ServiceLatencies reported at Close,
	// when the structs they read went back to the arena. A pointer: held
	// inline it would move every engine into a larger allocation size
	// class.
	closedView *closedView

	// xferLinks tracks live state-transfer links by source node, so a
	// failstop severs an in-flight transfer exactly as it severs the
	// node's protocol channels.
	xferLinks map[int][]*netsim.Link
}

// closedView is an engine's observation as Close found it.
type closedView struct {
	snapshot  obs.Snapshot
	latencies obs.ServiceLatencies
}

// New prepares an engine for o, whose Program is required. No
// simulation state is constructed until the first advancement (or an
// explicit Boot) — a Cluster is cheap to create and configure.
func New(o Options) *Engine { return &Engine{o: o} }

// emit forwards an event to the observer, stamping the current time.
func (e *Engine) emit(ev obs.Event) {
	if e.o.Observer == nil {
		return
	}
	if ev.Time == 0 {
		ev.Time = e.k.Now()
	}
	e.o.Observer(ev)
}

// Boot constructs the kernel, platform, replicas and scheduled failures,
// and spawns the simulation processes. Idempotent; called implicitly by
// every advancement method.
//
// The construction order below is the determinism contract: kernel,
// platform, guest boot per node, the replicas in node order (each with
// its upstream/downstream channels), the scheduled failstops, then the
// process spawns — in exactly this sequence, because random-stream
// derivation and event scheduling order follow from it. A bare session
// is the same sequence over a cluster of one with the bare runner on
// node 0 in place of a replica.
func (e *Engine) Boot() {
	if e.booted || e.closed {
		return
	}
	e.booted = true
	o := &e.o
	if o.DetectTimeout == 0 {
		o.DetectTimeout = 50 * sim.Millisecond
	}
	if o.Backups == 0 {
		o.Backups = 1
	}
	n := o.Backups + 1
	if o.Bare {
		n = 1
	}
	e.arena = borrowArena()
	e.commitLats, e.arena.commitLats = e.arena.commitLats[:0], nil
	k := sim.NewKernelIn(&e.arena.sim, o.Seed)
	k.SetStallLimit(stallLimit)
	e.k = k
	var nicRequests int // the shared NIC serves the client load's request IDs
	if o.ClientLoad != nil {
		nicRequests = o.ClientLoad.Requests
	}
	cluster := platform.NewClusterIn(&e.arena.platform, k, platform.Config{
		Disk:        o.Disk,
		ExtraDisks:  o.ExtraDisks,
		Terminal:    o.Terminal,
		NICRequests: nicRequests,
		Link:        o.Link,
		Machine:     e.machineConfig(),
		Hypervisor: hypervisor.Config{
			EpochLength:      o.EpochLength,
			NoTLBTakeover:    o.NoTLBTakeover,
			AdaptiveBoundary: o.OutputCommit.Enabled && o.OutputCommit.Adaptive,
			// The simulation fast path rides the same opt-in: with output
			// deferred, an environment access is a buffered shadow write,
			// so consecutive simulations share one hypervisor residency.
			ResidentEmulation: o.OutputCommit.Enabled,
		},
	}, n)
	e.cluster = cluster
	e.nic = cluster.NIC
	origin, words, entry := e.o.Program.Image()
	e.done = make([]sim.Time, n)
	if o.Bare {
		// Not a role but a different execution model: hardware trap
		// delivery, no hypervisor.
		m := cluster.Nodes[0].M
		e.bare = hypervisor.NewBare(m)
		e.bare.Boot(origin, words, entry)
		e.o.Program.Setup(m)
	} else {
		for _, node := range cluster.Nodes {
			node.HV.Boot(origin, words, entry)
			e.o.Program.Setup(node.M)
		}
		for i := range cluster.Nodes {
			e.reps = append(e.reps, e.newReplica(i))
		}
	}

	// Environment observation hooks (no virtual-time cost; order-neutral).
	e.installHooks()
	e.startClientLoad()

	for i, at := range append([]sim.Time{o.FailPrimaryAt}, o.FailBackupAt...) {
		if at > 0 && i < len(e.reps) {
			k.At(at, func() { e.failNow(i) })
		}
	}

	if o.Bare {
		e.spawn(0, "bare", e.bare.Run)
	}
	for i, r := range e.reps {
		e.spawn(i, nodeName(i), r.Run)
	}
}

// nodeName is what process and checkpoint-section names call node i: its
// position at boot, whatever it goes on to do.
func nodeName(i int) string {
	if i == 0 {
		return "primary"
	}
	return fmt.Sprintf("backup%d", i)
}

// newReplica wires node i's engine over the cluster as it stands: the
// channels toward every higher-priority node upstream, those toward every
// lower-priority node downstream, the divergence policy and the observer
// (shared between boot-time replicas and late joiners).
func (e *Engine) newReplica(i int) *replication.Replica {
	var ups, downs []replication.Peer
	for j := range e.cluster.Nodes {
		if j == i {
			continue
		}
		tx, rx := e.cluster.Channel(i, j)
		if j < i {
			ups = append(ups, replication.Peer{TX: tx, RX: rx})
		} else {
			downs = append(downs, replication.Peer{TX: tx, RX: rx})
		}
	}
	r := replication.NewReplicaIn(&e.arena.replication, e.cluster.Nodes[i].HV, ups, downs, e.replicaConfig())
	r.OnDivergence = e.divergenceHandler(i)
	r.Observer = e.observe
	return r
}

// spawn starts node i's process, recording when its step answers
// sim.StepDone.
func (e *Engine) spawn(i int, name string, step sim.StepFunc) {
	e.k.Start(name, func(pr *sim.Proc) (sim.Time, sim.StepStatus) {
		d, st := step(pr)
		if st == sim.StepDone {
			e.done[i] = pr.Now()
		}
		return d, st
	})
}

// divergenceHandler wraps the configured divergence policy with event
// emission. Without an explicit OnDivergence handler the replication
// tripwire is preserved: a divergence still panics (it means the
// deterministic-replay machinery is broken), after the event is
// emitted — an observer alone must not soften a determinism bug into
// a counter.
func (e *Engine) divergenceHandler(node int) func(epoch uint64, primary, backup uint64) {
	if e.o.OnDivergence == nil && e.o.Observer == nil {
		return nil
	}
	return func(epoch uint64, primary, backup uint64) {
		e.emit(obs.Event{Kind: obs.EventDivergence, Node: node, Epoch: epoch, Digests: [2]uint64{primary, backup}})
		if e.o.OnDivergence == nil {
			panic(fmt.Sprintf("replication: divergence at epoch %d: primary %x backup %x",
				epoch, primary, backup))
		}
		e.o.OnDivergence(epoch, primary, backup)
	}
}

// installHooks wires the environment observation hooks (a replica's
// protocol milestones are wired where it is built, in newReplica): one
// OnOp per shared disk (tagged with the disk index), and — with an
// observer — terminal input and NIC request arrival.
func (e *Engine) installHooks() {
	for i, d := range e.cluster.Disks {
		d.OnOp = func(r scsi.OpRecord) { e.diskOp(i, r) }
	}
	if e.o.Observer == nil {
		return
	}
	e.cluster.Console.OnInput = func(seq uint32, data []byte) {
		e.emit(obs.TerminalInputEvent(e.actingNode(), string(data)))
	}
	if e.nic != nil {
		e.nic.OnIngress = func(seq uint32, words []uint32) {
			var req uint32
			if len(words) > 0 {
				req = words[0]
			}
			e.emit(obs.Event{Kind: obs.EventNetRequest, Node: e.actingNode(), Request: req})
		}
	}
}

// startClientLoad wires the simulated client population to the shared
// NIC over its own access link (the same link model as the replication
// channel, so the eth/ATM experiment axes price both directions of the
// service path) and schedules the first arrival.
func (e *Engine) startClientLoad() {
	if e.o.ClientLoad == nil || e.nic == nil {
		return
	}
	link := e.o.Link
	if link.BitsPerSecond == 0 {
		link = netsim.Ethernet10("clients")
	}
	e.clientNet = netsim.NewDuplexIn(&e.arena.clientLinks, e.k, "clients", link)
	e.clients = clientsim.NewIn(&e.arena.clients, e.k, *e.o.ClientLoad, e.nic, e.clientNet)
	e.clients.Start()
}

// diskOp tallies a completed disk operation and emits it, tagged with
// the disk it happened on.
func (e *Engine) diskOp(disk int, r scsi.OpRecord) {
	e.diskOps++
	if r.Uncertain {
		e.diskUncertain++
	}
	e.emit(obs.DiskOpEvent(disk, obs.DiskOp{
		Host:      r.Host,
		Write:     r.Cmd == scsi.CmdWrite,
		Block:     r.Block,
		Uncertain: r.Uncertain,
		Committed: r.Committed,
	}))
}

// observe is every replica's observer: the acting coordinator's epoch
// commits advance the session's commit ordinal and apply the
// predicate-stop discipline (bounded and cancelable runs yield here, at
// epoch boundaries, never mid-epoch), released output feeds the
// commit-latency samples, and every protocol event reaches the observer.
func (e *Engine) observe(ev obs.Event) {
	switch ev.Kind {
	case obs.EventEpochCommitted:
		e.commits++
		e.lastNode, e.lastEpoch, e.lastTme = ev.Node, ev.Epoch, ev.Tme
	case obs.EventOutputCommitted:
		if ev.Outputs > 0 {
			e.commitLats = append(e.commitLats, ev.CommitLatency)
		}
	}
	e.emit(ev)
	if ev.Kind == obs.EventEpochCommitted && e.stopCheck != nil && e.stopCheck() {
		e.k.Stop()
	}
}

// Commits returns the cumulative count of acting-coordinator epoch
// commits since boot — the session's replayable pause coordinate.
func (e *Engine) Commits() uint64 { return e.commits }

// RunUntilCommits advances the session until the cumulative commit
// count reaches n (no-op if it already has). It pauses in exactly the
// state a predicate-stop at that commit leaves, which is what snapshot
// replay requires.
func (e *Engine) RunUntilCommits(n uint64) error {
	return e.RunUntil(func() bool { return e.commits >= n })
}

// failNow injects a failstop of node i (kernel context).
func (e *Engine) failNow(i int) {
	e.reps[i].Failstop()
	e.detachNode(i)
	e.severTransfers(i)
	e.emit(obs.Event{Kind: obs.EventFailstop, Node: i})
}

// detachNode disconnects a failstopped node from every environment
// device: completions and input stop reaching a dead host.
func (e *Engine) detachNode(i int) {
	n := e.cluster.Nodes[i]
	for _, a := range n.Adapters {
		a.Detached = true
	}
	n.Port.Detached = true
	if n.NICPort != nil {
		n.NICPort.Detached = true
	}
}

// severTransfers disconnects any state transfer the failstopped node
// was sourcing: the in-flight image is lost with its sender.
func (e *Engine) severTransfers(node int) {
	for _, l := range e.xferLinks[node] {
		l.Disconnect()
	}
}

// Now returns the current virtual time (zero before boot). After
// completion it reports the instant the last process exited — the
// kernel clock may sit at a run bound beyond any activity.
func (e *Engine) Now() sim.Time {
	if e.k == nil {
		return 0
	}
	if e.finished {
		return e.endTime
	}
	return e.k.Now()
}

// Kernel returns the engine's simulation kernel (nil before Boot): for
// probes that count what the kernel did, such as its process switches.
func (e *Engine) Kernel() *sim.Kernel { return e.k }

// Done reports whether the run has completed.
func (e *Engine) Done() bool { return e.finished }

// checkFinished detects completion (every simulation process exited)
// and computes the terminal result once.
func (e *Engine) checkFinished() {
	if e.finished || e.k.LiveProcs() != 0 {
		return
	}
	e.finished = true
	for _, t := range e.done {
		if t > e.endTime {
			e.endTime = t
		}
	}
	e.result, e.runErr = e.computeResult()
	e.emit(obs.Event{Kind: obs.EventCompleted, Time: e.endTime, Node: e.actingNode()})
}

// RunFor advances the session by d of virtual time (booting first if
// needed). Advancing a completed session is a no-op. It returns
// ErrStalled (as a *StallError) if the bounded-progress watchdog
// trips.
func (e *Engine) RunFor(d sim.Time) error {
	e.Boot()
	if e.finished || e.closed || d <= 0 {
		return nil
	}
	if err := e.stallErr(); err != nil {
		return err
	}
	e.k.ClearStop()
	e.k.RunUntil(e.k.Now() + d)
	e.checkFinished()
	return e.stallErr()
}

// ErrIncomplete reports a run that wedged before completing (no pending
// events but live processes — a protocol deadlock).
var ErrIncomplete = errors.New("session: run did not complete")

// ErrStalled reports a wedged coordinator: the scheduler kept
// dispatching but virtual time stopped advancing (a same-instant
// livelock). Test with errors.Is; the concrete error is a *StallError
// carrying the blocked process's identity.
var ErrStalled = errors.New("session: virtual time stalled")

// StallError is the concrete ErrStalled: the bounded-progress watchdog
// tripped after stallLimit scheduler passes without the clock moving.
type StallError struct {
	// Proc is the last process dispatched at the pinned instant
	// ("(event)" when an event callback, not a process, was spinning).
	Proc string
	// At is the virtual time progress stopped at.
	At sim.Time
}

func (e *StallError) Error() string {
	return fmt.Sprintf("session: virtual time stalled at %v (last dispatched: %s)", e.At, e.Proc)
}

// Is makes errors.Is(err, ErrStalled) hold for *StallError.
func (e *StallError) Is(target error) bool { return target == ErrStalled }

// stallErr converts the kernel watchdog's sticky stall state into the
// session-level error (nil while progress is being made).
func (e *Engine) stallErr() error {
	if name, at, ok := e.k.Stalled(); ok {
		return &StallError{Proc: name, At: at}
	}
	return nil
}

// RunUntil advances the session until pred holds — evaluated before
// starting and then at each epoch commit — or the run completes. It
// returns ErrIncomplete if the simulation wedges first and ErrStalled
// if the bounded-progress watchdog trips.
func (e *Engine) RunUntil(pred func() bool) error {
	e.Boot()
	if e.finished || e.closed || pred() {
		return nil
	}
	if err := e.stallErr(); err != nil {
		return err
	}
	e.stopCheck = pred
	defer func() { e.stopCheck = nil }()
	e.k.ClearStop()
	e.k.RunUntil(maxRunTime)
	e.checkFinished()
	if err := e.stallErr(); err != nil {
		return err
	}
	if e.finished || e.k.Stopped() {
		return nil
	}
	return ErrIncomplete
}

// RunToCompletion drives the session until the guest halts everywhere.
// cancelled (optional) is polled at epoch boundaries; when it returns
// true the run pauses and RunToCompletion returns nil with the session
// still resumable.
func (e *Engine) RunToCompletion(cancelled func() bool) error {
	e.Boot()
	if e.closed {
		return nil
	}
	for !e.finished {
		if cancelled != nil && cancelled() {
			return nil
		}
		if err := e.stallErr(); err != nil {
			return err
		}
		e.stopCheck = cancelled
		e.k.ClearStop()
		e.k.RunUntil(maxRunTime)
		e.stopCheck = nil
		e.checkFinished()
		if e.finished {
			break
		}
		if err := e.stallErr(); err != nil {
			return err
		}
		if e.k.Stopped() {
			continue // paused by cancellation; loop re-checks
		}
		return ErrIncomplete
	}
	return e.runErr
}

// ErrCompleted reports a perturbation applied after the workload
// completed: there is no live cluster left to perturb. Every
// perturbation entry point (FailBackup, SetLinkQuality, AddBackup)
// returns it rather than silently no-opping, so a driver cannot
// mistake a dead session for an accepted injection.
var ErrCompleted = errors.New("session: workload already complete")

// FailNode failstops node i's processor immediately (between advancement
// slices) — the live counterpart of Options.FailPrimaryAt and
// FailBackupAt. applied reports whether a live processor was stopped:
// failstopping one that already failed is an error-free no-op (the
// paper's failstop model: a dead processor cannot die again), and so is
// failstopping the one node of a bare session, which has no replica set
// to survive it. After completion it returns ErrCompleted.
func (e *Engine) FailNode(i int) (applied bool, err error) {
	e.Boot()
	switch {
	case e.closed:
		return false, errors.New("session: engine is closed")
	case e.finished:
		return false, ErrCompleted
	case e.o.Bare && i == 0:
		return false, nil
	case e.o.Bare:
		return false, errors.New("session: bare run has no backups")
	case i < 0 || i >= len(e.reps):
		return false, fmt.Errorf("session: no node %d (have %d)", i, len(e.reps))
	case e.reps[i].Failed():
		return false, nil
	}
	e.failNow(i)
	return true, nil
}

// SetLinkQuality adjusts every inter-hypervisor link (both directions
// of the full mesh) mid-run. After completion it returns ErrCompleted.
func (e *Engine) SetLinkQuality(q netsim.Quality) error {
	e.Boot()
	if e.closed {
		return errors.New("session: engine is closed")
	}
	if e.finished {
		return ErrCompleted
	}
	if e.o.Bare {
		return errors.New("session: bare run has no links")
	}
	for i := range e.cluster.Links {
		for j := range e.cluster.Links[i] {
			if d := e.cluster.Links[i][j]; d != nil {
				d.AtoB.SetQuality(q)
				d.BtoA.SetQuality(q)
			}
		}
	}
	// State-transfer links are inter-hypervisor links too: an image
	// still in flight pays the new costs for its unserialized remainder
	// (messages already serialized keep their scheduled delivery, as on
	// every link).
	for _, links := range e.xferLinks {
		for _, l := range links {
			l.SetQuality(q)
		}
	}
	e.emit(obs.Event{Kind: obs.EventLinkQualityChanged})
	return nil
}

// actingNode returns the node currently interacting with the
// environment: the highest-priority live promoted replica, else node 0.
func (e *Engine) actingNode() int {
	for i, r := range e.reps {
		if r.Promoted() && !r.Failed() {
			return i
		}
	}
	return 0
}

// Snapshot captures the observable state at the current virtual time.
// After Close it reports what it reported at Close.
func (e *Engine) Snapshot() obs.Snapshot {
	if e.closed {
		return e.closedView.snapshot
	}
	s := obs.Snapshot{Booted: e.booted, Done: e.finished}
	if !e.booted {
		return s
	}
	// After completion the kernel clock may sit at a run bound rather
	// than the instant the last process exited; report the latter.
	s.Now = e.k.Now()
	if e.finished {
		s.Now = e.endTime
	}
	s.Commits = e.commits
	s.DiskOps, s.DiskUncertain = e.diskOps, e.diskUncertain
	if e.clients != nil {
		cs := e.clients.Stats()
		s.NetRequests, s.NetAnswered, s.NetRetransmits = cs.Issued, cs.Answered, cs.Retransmits
	}
	s.Nodes = len(e.cluster.Nodes)
	s.Acting = e.actingNode()
	// A bare session runs no epochs; its guest retires on the machine.
	if e.bare != nil {
		s.GuestInstructions = e.bare.M.Cycles()
	} else {
		hv := e.cluster.Nodes[s.Acting].HV
		s.Epochs = hv.Epoch()
		s.GuestInstructions = hv.GuestInstructions()
	}
	s.Halted = e.halted(s.Acting)
	for _, r := range e.reps {
		st := &r.Stats
		s.MessagesSent += st.MessagesSent
		s.BytesSent += st.BytesSent
		s.AcksReceived += st.AcksReceived
		s.IntsForwarded += st.IntsForwarded
		s.Divergences += st.Divergences
		s.UncertainSynthesized += st.UncertainSynth
		s.PeersExcluded += st.PeerTimeouts
		s.Promoted = s.Promoted || r.Promoted()
	}
	s.Console = e.cluster.Console.Output()
	return s
}

// Result returns the terminal report. It errors until the run has
// completed (use Snapshot for mid-run observation).
func (e *Engine) Result() (Result, error) {
	if !e.finished {
		return Result{}, errors.New("session: run not complete (use Snapshot for live state)")
	}
	return e.result, e.runErr
}

// halted reports whether node i's guest has halted.
func (e *Engine) halted(i int) bool {
	if e.bare != nil {
		return e.bare.Halted()
	}
	return e.cluster.Nodes[i].HV.Halted()
}

// computeResult assembles the terminal report from the authoritative
// survivor: node 0 if it never failed, else the last promoted surviving
// node, else any node whose guest HALTED, a live one before one whose
// processor was killed (a replica that completed the workload and was
// failstopped afterwards still produced the deterministic result, but its
// completion instant is when its loop noticed the failstop; a bare
// session's only node is found here too). A bare session reports zero
// protocol and hypervisor counters: none of that machinery ran.
func (e *Engine) computeResult() (Result, error) {
	var res Result
	for i, r := range e.reps {
		if i == 0 {
			res.PrimaryStats = r.Stats
		}
		res.Promoted = res.Promoted || r.Promoted()
	}
	authority := -1
	if len(e.reps) > 0 && e.halted(0) && !e.reps[0].Failed() {
		authority = 0
	}
	for i := len(e.reps) - 1; i >= 0 && authority < 0; i-- {
		if r := e.reps[i]; r.Promoted() && e.halted(i) && !r.Failed() {
			authority = i
		}
	}
	for _, live := range [2]bool{true, false} {
		for i := len(e.cluster.Nodes) - 1; i >= 0 && authority < 0; i-- {
			if e.halted(i) && (!live || i >= len(e.reps) || !e.reps[i].Failed()) {
				authority = i
			}
		}
	}
	if authority < 0 {
		return res, fmt.Errorf("session: run did not complete (node 0 pc=%#x promoted=%v)",
			e.cluster.Nodes[0].M.PC, res.Promoted)
	}
	res.Time = e.done[authority]
	res.Guest = e.o.Program.Result(e.cluster.Nodes[authority].M)
	res.HVStats = e.cluster.Nodes[authority].HV.Stats
	res.Console = e.cluster.Console.Output()
	if e.nic != nil {
		res.NetReplies = e.nic.Replies()
	}
	return res, nil
}

// Disks returns every shared disk in index order (nil before boot).
func (e *Engine) Disks() []*scsi.Disk {
	if e.cluster == nil {
		return nil
	}
	return e.cluster.Disks
}

// NIC returns the shared network adapter (nil before boot or when the
// session has no NIC).
func (e *Engine) NIC() *nic.NIC { return e.nic }

// Clients returns the simulated client population (nil unless client
// load was configured and the session has booted). Its per-request table
// goes back to the arena at Close: afterwards it keeps only its Stats.
func (e *Engine) Clients() *clientsim.Sim { return e.clients }

// ServiceLatencies is the client population's latency distribution with
// the output-commit quantiles over every epoch that released output; ok
// is false without a client population. After Close it reports what it
// reported at Close.
func (e *Engine) ServiceLatencies() (sl obs.ServiceLatencies, ok bool) {
	if e.clients == nil {
		return sl, false
	}
	if e.closed {
		return e.closedView.latencies, true
	}
	sl = e.clients.Measure()
	if n := len(e.commitLats); n > 0 {
		// Nothing else reads the samples' order: sort them where they lie.
		slices.Sort(e.commitLats)
		sl.CommitP50, sl.CommitP99 = e.commitLats[int(0.50*float64(n-1))], e.commitLats[int(0.99*float64(n-1))]
	}
	return sl, true
}

// Close releases the simulation (terminating its process goroutines).
// The engine's terminal result, if any, remains readable. Idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	// The hypervisors, replicas and client tables that Snapshot and
	// ServiceLatencies read go back to the arena below.
	e.closedView = &closedView{snapshot: e.Snapshot()}
	e.closedView.latencies, _ = e.ServiceLatencies()
	e.closed = true
	if e.k != nil {
		e.k.Shutdown() // its events go back to the arena
	}
	// The kernel is down and no process will run again: hand the
	// machines, hypervisors, links and replicas with their buffers, the
	// disks' buffers, the epoch records and frames, and the transfer blobs
	// back to the arena, and the arena to the shelf, for the next cluster.
	// Cached results remain valid, and Snapshot reports what it did at
	// Close.
	if e.cluster != nil {
		e.cluster.Release()
	}
	for _, src := range slices.Sorted(maps.Keys(e.xferLinks)) {
		for _, l := range e.xferLinks[src] {
			l.Release()
		}
	}
	if e.clientNet != nil {
		e.clientNet.Release()
		e.clients.Release()
	}
	// Last node first: the arena's lists pop last in, first out, so the
	// next cluster's node i is rebuilt in the replica node i had here.
	for i := len(e.reps) - 1; i >= 0; i-- {
		e.reps[i].Release()
	}
	if e.arena != nil {
		e.arena.commitLats, e.commitLats = e.commitLats[:0], nil
		e.arena.replication.Reclaim()
		for _, w := range e.transfers {
			e.arena.transfers.Put(w)
		}
		e.transfers = nil
		arenas.Put(e.arena)
		e.arena = nil
	}
}
