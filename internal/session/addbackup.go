package session

// Backup reintegration: after a failstop the cluster runs with reduced
// redundancy forever unless the repaired processor can rejoin — the
// paper's §5 repair assumption, solved in industrial descendants
// (VMware FT, Remus) by live VM state transfer. AddBackup implements
// it inside the simulation:
//
//  1. quiesce — advance to the acting coordinator's next epoch commit,
//     the protocol's natural consistency point: delivery for the epoch
//     is complete, the interrupt buffer is empty, and the boundary's
//     Tme value is in hand;
//  2. capture — serialize the coordinator's complete machine and
//     hypervisor state (the transfer blob below, each half in its own
//     layer's format), with the backup-side adjustments applied (I/O
//     suppressed per §2.2 case i, issued-real latches cleared per P3);
//  3. ship — send the blob through a dedicated simulated link with the
//     same cost model, so transfer time is charged to virtual time
//     without head-of-line-blocking the protocol stream;
//  4. resume — the pair keeps executing during the transfer. The
//     joiner's receiver processes start immediately (its hypervisor is
//     alive; only the guest image is in transit), acknowledging and
//     filing the live protocol stream so no coordinator wait stalls on
//     the migration. When the image lands, the joiner installs it and
//     runs the ordinary Replica from epoch E+1 with Tme as its
//     clock base (rule P5's steady-state resynchronization, applied
//     once at joining). Its digest checks then hold by construction:
//     identical state plus identical inputs is the paper's whole
//     argument.
//
// The joiner executes epochs at guest speed, so it trails the acting
// coordinator by roughly the transfer duration for the rest of the
// run — the reintegration's cost is visible in the session's
// completion time, which is the point of charging it to the link. If
// the source processor failstops mid-transfer, an image already on the
// wire still arrives (fail-stop halts the sender, not frames in
// flight) and the join proceeds on the promoted coordinator's stream;
// the joiner withdraws only if a detection timeout fires on the downed
// channel before the image lands.

import (
	"errors"
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// AddBackupConfig parameterizes a reintegration.
type AddBackupConfig struct {
	// Link configures the new node's channels to every existing node
	// (zero value: the cluster's boot-time link model).
	Link netsim.LinkConfig
}

// setJoinBarrier arms (or disarms) the reintegration drain on every
// replica: the one that coordinates, and any that may promote into
// coordinating while the quiesce runs.
func (e *Engine) setJoinBarrier(on bool) {
	for _, r := range e.reps {
		r.SetJoinBarrier(on)
	}
}

// actingDrained reports whether the acting coordinator's replication
// stream is fully drained (vacuously true for the classic protocol path,
// which transmits inline at the boundary).
func (e *Engine) actingDrained() bool {
	return e.reps[e.lastNode].ReplicationDrained()
}

// transfer is the payload of a live backup-reintegration state
// transfer: the acting coordinator's complete virtual-machine image as
// of an epoch boundary, plus the boundary's clock value (the Tme the
// joiner resynchronizes from, exactly as rule P5 prescribes for the
// steady state).
type transfer struct {
	Machine    machine.State
	Hypervisor hypervisor.State
	Tme        uint32
	// Epoch is the boundary's committed epoch; the joiner's first own
	// epoch is Epoch+1.
	Epoch uint64
}

// code codes the transfer, each half in its own layer's format, then
// the boundary. The blob's length is the wire size charged to the
// simulated link.
func (t *transfer) code(c *snapshot.Codec) {
	t.Machine.Code(c)
	t.Hypervisor.Code(c)
	c.U32(&t.Tme)
	c.U64(&t.Epoch)
}

// encodeTransfer serializes node act's transfer (captureTransfer). The
// blob rides the link and the joiner's restored state may alias it, so
// it lives as long as the cluster: its writer comes from the arena and
// goes back to it at Close.
func (e *Engine) encodeTransfer(act int) []byte {
	t, w := e.captureTransfer(act), e.transferWriter()
	// Size the buffer once (a recycled one has usually grown already).
	// RAM is all but a few KB of it.
	n := 4096
	for _, pg := range t.Machine.Pages {
		n += 8 + len(pg.Data) // index, length prefix, data
	}
	w.Grow(n)
	t.code(w.Codec())
	return w.Finish()
}

// transferWriter takes a writer for a transfer blob from the arena (the
// engine is booted) and holds it until Close.
func (e *Engine) transferWriter() *snapshot.Writer {
	w := writerFrom(&e.arena.transfers, snapshot.TransferMagic)
	e.transfers = append(e.transfers, w)
	return w
}

// captureTransfer is node act's complete virtual-machine image as of the
// last committed boundary, adjusted for the backup role: environment
// output suppressed (§2.2 case i) and issued-real latches cleared (rule
// P3 — the joiner's own devices owe it nothing). Its RAM borrows the
// live page frames: the caller holds the session at a quiesced boundary
// and encodes it before anything runs.
func (e *Engine) captureTransfer(act int) transfer {
	hs := e.cluster.Nodes[act].HV.CaptureState()
	hs.IOActive = false
	for i := range hs.Devices {
		hs.Devices[i].IssuedReal = false
	}
	return transfer{
		Machine:    e.cluster.Nodes[act].M.BorrowState(),
		Hypervisor: hs,
		Tme:        e.lastTme,
		Epoch:      e.lastEpoch,
	}
}

// AddBackup reintegrates a new backup at the lowest priority and
// returns its node index. The session advances to the acting
// coordinator's next epoch commit (virtual time moves) before the
// state transfer begins.
func (e *Engine) AddBackup(cfg AddBackupConfig) (int, error) {
	if e.closed {
		return 0, errors.New("session: engine is closed")
	}
	if e.finished {
		return 0, ErrCompleted
	}
	if e.o.Bare {
		return 0, errors.New("session: bare run has no replica set")
	}
	e.Boot()

	// Quiesce at the next *replicated* epoch commit. An epoch boundary
	// alone is not a safe capture point under output commit: the
	// boundary's frame may still sit in the coordinator's transmit queue,
	// where a failstop destroys it — the promoted backup would then
	// re-execute that epoch live, while the joiner's image certifies the
	// dead coordinator's version of it. The join barrier holds the acting
	// coordinator at its next boundary until the stream drains (transmit
	// queue flushed, every frame acknowledged by every live peer), so the
	// captured image never exceeds what the survivors can reconstruct.
	start := e.commits
	e.setJoinBarrier(true)
	err := e.RunUntil(func() bool { return e.commits > start && e.actingDrained() })
	e.setJoinBarrier(false)
	if err != nil {
		return 0, err
	}
	if e.commits == start {
		return 0, errors.New("session: workload completed before an epoch boundary")
	}

	act := e.lastNode
	blob := e.encodeTransfer(act)

	// Build the node and its mesh links.
	n := len(e.cluster.Nodes)
	node := e.cluster.AddNode(cfg.Link)
	if node.NICPort != nil {
		// The node's NIC port springs into existence now, but the image
		// in transit was captured at the quiesce boundary: request
		// frames pending THERE must be pending HERE too, or a later
		// promotion of the joiner would lose them (and frames consumed
		// by pre-capture epochs would replay). Cloning the acting
		// coordinator's port puts both in lockstep — identical future
		// arrivals, identical consume watermarks from applied records.
		node.NICPort.CloneFrom(e.cluster.Nodes[act].NICPort)
	}
	bak := e.newReplica(n)
	bak.BootTOD = e.lastTme
	bak.SetResumePoint(e.lastEpoch + 1)
	e.reps = append(e.reps, bak)
	e.done = append(e.done, 0)

	// Splice the joiner into every replica that coordinates — or may
	// later coordinate — the fan-out. Failed and withdrawn ones are
	// skipped: they will never send again.
	for j, r := range e.reps[:n] {
		if !r.Failed() && !r.Withdrawn() {
			tx, rx := e.cluster.Channel(j, n)
			r.AddDownstream(replication.Peer{TX: tx, RX: rx})
		}
	}

	// The joiner's hypervisor is alive from this instant — only the
	// virtual-machine image is in transit. Start its receivers now, so
	// protocol messages are acknowledged (P4) and filed while the image
	// flies; otherwise a coordinator awaiting acknowledgements (P2, the
	// §4.3 I/O gate) would stall for the whole transfer and trip the
	// other replicas' failure detectors.
	bak.StartReceivers(e.k)

	// Ship the image on a dedicated migration channel with the same
	// cost model (transfer time is simulated time), so bulk bytes do
	// not head-of-line-block the protocol stream.
	linkCfg := cfg.Link
	if linkCfg.BitsPerSecond == 0 {
		linkCfg = e.o.Link
	}
	xfer := netsim.NewLinkIn(&e.arena.platform.Links, e.k, linkCfg)
	if e.xferLinks == nil {
		e.xferLinks = map[int][]*netsim.Link{}
	}
	e.xferLinks[act] = append(e.xferLinks[act], xfer)
	xfer.Send(blob, len(blob))

	// The joiner: receive the image, install it, run the ordinary
	// replica from the transferred boundary. If the source processor
	// failstops with the image in flight, the transfer — and the
	// reintegration — is lost: the joiner withdraws.
	e.spawn(n, nodeName(n), e.joiner(bak, node, xfer))

	e.emit(obs.Event{Kind: obs.EventBackupAdded, Node: n, Epoch: e.lastEpoch, TransferBytes: uint64(len(blob))})
	return n, nil
}

// joiner is the step of a late joiner's process: it waits for the state
// transfer on xfer, installs the image and continues as the replica's
// step. It waits in waits of DetectTimeout, each with one deadline: a
// wake that finds the inbox empty waits out the rest, and at the deadline
// a severed transfer abandons the joiner while a live one begins the
// next wait.
func (e *Engine) joiner(bak *replication.Replica, node *platform.Node, xfer *netsim.Link) sim.StepFunc {
	var deadline sim.Time
	waiting, installed := false, false
	return func(pr *sim.Proc) (sim.Time, sim.StepStatus) {
		for !installed {
			m, ok := xfer.Inbox.TryRecv()
			if ok {
				e.install(bak, node, m.Payload.([]byte))
				installed = true
				break
			}
			if waiting && (pr.TimedOut() || deadline <= pr.Now()) {
				if xfer.Down() {
					bak.Abandon()
					return 0, sim.StepDone
				}
				waiting = false
			}
			if !waiting {
				// Boot normalized the DetectTimeout default before the
				// quiesce ran.
				waiting, deadline = true, pr.Now()+e.o.DetectTimeout
			}
			return xfer.Inbox.Await(deadline - pr.Now())
		}
		return bak.Run(pr)
	}
}

// install puts a transferred image on the joiner's node. The transferred
// boundary is authoritative: the joiner's clock base and resume point
// come from the image it actually received, not from whatever the
// splice-time engine remembered.
func (e *Engine) install(bak *replication.Replica, node *platform.Node, blob []byte) {
	// The blob is what this engine's own transfer.code wrote, over an
	// in-process link: a refusal below is a broken invariant, not input.
	var t transfer
	r, err := snapshot.NewReader(blob, snapshot.TransferMagic)
	if err == nil {
		t.code(r.Codec())
		err = r.Done()
	}
	if err == nil {
		err = node.M.RestoreState(t.Machine)
	}
	if err == nil {
		err = node.HV.RestoreState(t.Hypervisor)
	}
	if err != nil {
		panic(fmt.Sprintf("session: state transfer: %v", err))
	}
	bak.BootTOD = t.Tme
	bak.SetResumePoint(t.Epoch + 1)
}
