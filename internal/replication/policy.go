package replication

// The paper's two protocols and the VMware-FT style output rule (Scales
// et al.) are three points of one design, and one coordinator loop runs
// them all. This file holds the only thing that tells them apart: three
// values derived once from (Protocol, OutputCommit) when a coordinator
// is built.
//
//	                 gate         window  framing
//	§2 (P2)          boundary     0       partial frames, inline
//	§4.3             before I/O   0       partial frames, inline
//	output commit    release      W       one coalesced frame, transmit process
//
// Under the release gate nothing blocks on acknowledgements: environment
// output generated in epoch E is deferred (hypervisor-side buffer) and
// released only when E's End is acknowledged by every live peer, while
// execution runs ahead into epochs E+1..E+W. Coalescing folds the
// epoch's [Tme_p], [end, E] and interrupt records into ONE pooled frame,
// collapsing the per-peer controller set-up cost from (2+k)·SetupTime to
// SetupTime per epoch and moving it off the guest's critical path.

// OutputCommit configures the output-commit point of the design. The
// zero value is "off": the coordinator runs the lock-step point its
// Protocol names.
type OutputCommit struct {
	// Enabled turns deferred output, pipelined acknowledgment and
	// coalesced framing on.
	Enabled bool
	// Window is the maximum number of epochs the coordinator may run
	// ahead of the oldest unacknowledged epoch (minimum and default 1).
	Window int
	// Adaptive enables output-triggered epoch boundaries; it must be
	// mirrored into hypervisor.Config.AdaptiveBoundary on EVERY replica
	// (the session layer does this) so all replicas cut identically.
	Adaptive bool
}

// ackGate is where the coordinator insists on acknowledgements.
type ackGate uint8

const (
	// gateBoundary is rule P2: wait at every epoch boundary, between
	// [Tme_p] and delivery, for everything sent so far.
	gateBoundary ackGate = iota
	// gateOutput is §4.3: wait only before an operation that reveals
	// virtual-machine state to the environment.
	gateOutput
	// gateRelease never blocks the guest: output is deferred, and an
	// epoch's acknowledgement releases it.
	gateRelease
)

// policy is one point in the design space.
type policy struct {
	gate ackGate
	// window bounds how many shipped epochs may await acknowledgement
	// when the next one starts; 0 means no bound (the gate blocks
	// instead).
	window int
	// coalesce ships an epoch as one frame through the transmit process
	// instead of as partial frames from the coordinator's own process.
	coalesce bool
}

// derivePolicy maps the public options onto the design space. It is the
// one place the engines look at OutputCommit.Enabled.
func derivePolicy(proto Protocol, oc OutputCommit) policy {
	switch {
	case oc.Enabled:
		return policy{gate: gateRelease, window: max(oc.Window, 1), coalesce: true}
	case proto == ProtocolNew:
		return policy{gate: gateOutput}
	}
	return policy{gate: gateBoundary}
}
