package replication

import (
	"repro/internal/hypervisor"
	"repro/internal/sim"
)

// Primary drives the primary virtual machine's hypervisor: rules P1 and
// P2 (or the §4.3 revision), fanned out to one or more backups. With t
// backups the system is t-fault-tolerant: the paper builds t = 1 and
// notes the generalization is straightforward; here it is implemented.
type Primary struct {
	HV *hypervisor.Hypervisor

	coord  *coordinator
	proto  Protocol
	failed bool

	// BootTOD is the virtual machines' initial clock value (all
	// replicas must agree; default 0).
	BootTOD uint32

	// PeerTimeout, when nonzero, bounds how long an acknowledgement
	// wait (P2, the §4.3 I/O gate) may block on a peer that has
	// stopped acknowledging while its channel stays up; such a peer is
	// then declared failed and excluded. Zero waits forever (the
	// paper's reliable-channel assumption). Set before Run.
	PeerTimeout sim.Time

	// Hooks observes protocol milestones (optional; set before Run).
	Hooks Hooks

	// OutputCommit moves the coordinator to the output-commit point of
	// the design (zero value: off, the lock-step point the protocol
	// names). Set before Run; every replica must agree on it.
	OutputCommit OutputCommit

	Stats Stats
}

// NewPrimary wires a primary engine with t backups (peers in priority
// order: peers[0] is the first to promote).
func NewPrimary(hv *hypervisor.Hypervisor, peers []Peer, proto Protocol) *Primary {
	pr := &Primary{HV: hv, proto: proto}
	pr.coord = newCoordinator(hv, peers, &pr.Stats,
		func() bool { return pr.failed }, newEpochArchive(), &pr.Hooks, 0)
	return pr
}

// Failstop makes the primary's processor stop abruptly: execution ceases
// at the next instruction-chunk boundary and all communication is
// severed. Call from a scheduled simulation event to inject a failure at
// an arbitrary virtual time (including mid-epoch, mid-I/O — the two
// generals window of §2.2).
func (pr *Primary) Failstop() {
	pr.failed = true
	pr.coord.s.disconnectAll()
}

// Failed reports whether the failstop was injected.
func (pr *Primary) Failed() bool { return pr.failed }

// SetJoinBarrier arms (or disarms) the reintegration drain: while set,
// the coordinator holds at each epoch boundary until every committed
// epoch is replicated (see coordinator.joinBarrier). Call from a paused
// simulation, as with AddPeer.
func (pr *Primary) SetJoinBarrier(on bool) { pr.coord.joinBarrier = on }

// ReplicationDrained reports whether every epoch committed so far is
// provably held by the live backups — the safe capture condition for a
// state transfer.
func (pr *Primary) ReplicationDrained() bool { return pr.coord.drained() }

// Run executes the primary until the guest halts or a failstop is
// injected. It must be called as a simulation process.
func (pr *Primary) Run(p *sim.Proc) {
	pr.coord.s.peerTimeout = pr.PeerTimeout
	pr.coord.pol = derivePolicy(pr.proto, pr.OutputCommit)
	pr.coord.install(p)
	pr.coord.run(p, pr.BootTOD)
}
