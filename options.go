package hft

import (
	"errors"
	"fmt"

	"repro/internal/clientsim"
	"repro/internal/console"
	"repro/internal/guest"
	"repro/internal/netsim"
	"repro/internal/replication"
	"repro/internal/scsi"
	"repro/internal/session"
	"repro/internal/sim"
)

// Option configures a Cluster. Options validate eagerly: a bad value
// is reported by NewCluster, before any simulation exists.
type Option func(*clusterOptions) error

// clusterOptions is the resolved configuration: the engine's own
// options, which each Option writes directly, plus the two choices
// Save and the cross-checks need in their public form.
type clusterOptions struct {
	session.Options
	workload Workload // zero Kind: none (WithProgram instead)
	program  Program  // nil unless WithProgram
}

// maxBackups bounds t. Every backup boots a machine and a hypervisor
// and adds a link to every other node, so the bound keeps an absurd
// count (from a caller or a checkpoint) an error rather than an
// allocation.
const maxBackups = 64

// buildOptions applies opts over the defaults and cross-validates.
func buildOptions(opts []Option) (*clusterOptions, error) {
	o := &clusterOptions{Options: session.Options{
		Seed:        1,
		EpochLength: 4096,
		Link:        netsim.Ethernet10("ethernet10"),
		Backups:     1,
	}}
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("hft: nil Option")
		}
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	haveWork := o.workload.Kind != 0
	if !haveWork && o.program == nil {
		return nil, errors.New("hft: no guest workload (use WithWorkload or WithProgram)")
	}
	if haveWork && o.program != nil {
		return nil, errors.New("hft: WithWorkload and WithProgram are mutually exclusive")
	}
	if o.ClientLoad != nil {
		if o.workload.Kind != guest.WorkloadServe {
			return nil, errors.New("hft: WithClientLoad requires the ServeRequests workload (the request count is derived from it)")
		}
		o.ClientLoad.Requests = int(o.workload.Ops)
	}
	// Workload/device cross-validation, eagerly: a workload that drives
	// a device the platform does not carry would wedge mid-run instead.
	switch o.workload.Kind {
	case guest.WorkloadCopy:
		if len(o.ExtraDisks) == 0 {
			return nil, errors.New("hft: TwoDiskCopy needs a second disk (add WithDisk)")
		}
	case guest.WorkloadTermEcho:
		if len(o.Terminal) == 0 {
			return nil, errors.New("hft: TerminalEcho needs scripted terminal input (add WithTerminal)")
		}
		// The TEMPORALLY last input must end with EOT (events are
		// delivered by At, not by option order).
		last := o.Terminal[0]
		for _, ev := range o.Terminal[1:] {
			if ev.At >= last.At {
				last = ev
			}
		}
		if len(last.Data) == 0 || last.Data[len(last.Data)-1] != TerminalEOT {
			return nil, errors.New("hft: TerminalEcho input script must end with TerminalEOT or the guest never halts")
		}
	case guest.WorkloadServe:
		if o.ClientLoad == nil {
			return nil, errors.New("hft: ServeRequests needs a client population (add WithClientLoad) or the guest never halts")
		}
		if o.workload.Ops == 0 {
			return nil, errors.New("hft: ServeRequests with zero requests")
		}
	}
	return o, nil
}

// WithWorkload selects one of the built-in guest benchmarks
// (CPUIntensive, DiskWrite, DiskRead). Exactly one of WithWorkload or
// WithProgram is required.
func WithWorkload(w Workload) Option {
	return func(o *clusterOptions) error {
		if w.Kind == 0 {
			return errors.New("hft: zero workload")
		}
		o.workload, o.Program = w, session.WorkloadProgram(w)
		return nil
	}
}

// WithProgram plugs in a user-supplied guest program in place of the
// built-in benchmarks.
func WithProgram(p Program) Option {
	return func(o *clusterOptions) error {
		if p == nil {
			return errors.New("hft: nil Program")
		}
		o.program, o.Program = p, programAdapter{p}
		return nil
	}
}

// WithEpochLength sets the instructions per epoch (default 4096, the
// paper's reference point; HP-UX bounds it at 385,000).
func WithEpochLength(n uint64) Option {
	return func(o *clusterOptions) error {
		if n == 0 {
			return errors.New("hft: zero epoch length")
		}
		if n > 385000 {
			return errors.New("hft: epoch length exceeds the HP-UX clock-maintenance bound (385,000)")
		}
		o.EpochLength = n
		return nil
	}
}

// WithProtocol selects the coordination variant (default ProtocolOld).
func WithProtocol(p Protocol) Option {
	return func(o *clusterOptions) error {
		if p != ProtocolOld && p != ProtocolNew {
			return fmt.Errorf("hft: unknown protocol %d", p)
		}
		o.Protocol = p
		return nil
	}
}

// WithLink sets the hypervisor-to-hypervisor channel (default
// Ethernet10).
func WithLink(p LinkParams) Option {
	return func(o *clusterOptions) error {
		o.Link = netsim.LinkConfig(p)
		return checkLink(p)
	}
}

// checkLink rejects a channel no link can run (WithLink, AddBackupLink
// and Restore's journal share it).
func checkLink(p LinkParams) error {
	if p.BitsPerSecond <= 0 {
		return fmt.Errorf("hft: link %q has non-positive bandwidth %d", p.Name, p.BitsPerSecond)
	}
	if p.Latency < 0 || p.SetupTime < 0 || p.MTU < 0 || p.FrameOverhead < 0 || p.PerMessageFrames < 0 {
		return fmt.Errorf("hft: link %q has negative parameters", p.Name)
	}
	return nil
}

// WithSeed sets the simulation seed (default 1). Zero is rejected: it
// reads as "unset", and accepting it as an alias for the default would
// make two differently-written configurations identical.
func WithSeed(seed int64) Option {
	return func(o *clusterOptions) error {
		if seed == 0 {
			return errors.New("hft: zero seed (the default seed is 1; pass it explicitly)")
		}
		o.Seed = seed
		return nil
	}
}

// WithBackups sets t, the number of backup replicas (default 1): the
// virtual machine tolerates t failstops.
func WithBackups(t int) Option {
	return func(o *clusterOptions) error {
		if t < 1 || t > maxBackups {
			return fmt.Errorf("hft: backups must be >= 1 and <= %d (got %d)", maxBackups, t)
		}
		o.Backups = t
		return nil
	}
}

// WithDetectTimeout sets the backup's failure-detection timeout
// (default 50 ms simulated; backup i waits i × timeout so promotions
// cascade in priority order).
func WithDetectTimeout(d Duration) Option {
	return func(o *clusterOptions) error {
		if d <= 0 {
			return fmt.Errorf("hft: non-positive detect timeout %v", sim.Time(d))
		}
		o.DetectTimeout = d
		return nil
	}
}

// WithDiskLatency overrides the shared disk's service times (defaults:
// the paper's 24.2 ms reads / 26 ms writes).
func WithDiskLatency(read, write Duration) Option {
	return func(o *clusterOptions) error {
		if read < 0 || write < 0 {
			return errors.New("hft: negative disk latency")
		}
		o.Disk.ReadLatency, o.Disk.WriteLatency = read, write
		return nil
	}
}

// DiskSpec describes one additional shared disk for WithDisk. Zero
// latencies take the paper's defaults (24.2 ms reads / 26 ms writes).
// Every disk holds 4096 blocks of 8 KiB, zero-filled until written.
type DiskSpec struct {
	// ReadLatency is the device service time for a block read.
	ReadLatency Duration
	// WriteLatency is the device service time for a block write.
	WriteLatency Duration
}

// WithDisk adds one more shared disk to the cluster — repeatable, each
// call appends a disk. Disk 0 is the boot disk every configuration
// carries (WithDiskLatency configures it); WithDisk disks become disks
// 1, 2, ... on the platform's device table, visible to the guest at
// consecutive MMIO windows and dual-ported to every replica exactly
// like disk 0 (the I/O Device Accessibility Assumption). The built-in TwoDiskCopy workload drives disks 0 and 1.
func WithDisk(spec DiskSpec) Option {
	return func(o *clusterOptions) error {
		if spec.ReadLatency < 0 || spec.WriteLatency < 0 {
			return errors.New("hft: negative disk latency")
		}
		o.ExtraDisks = append(o.ExtraDisks, scsi.DiskConfig{
			ReadLatency:  spec.ReadLatency,
			WriteLatency: spec.WriteLatency,
		})
		return nil
	}
}

// TerminalInput is one scripted keystroke burst: Data arrives at the
// console at virtual time At.
type TerminalInput struct {
	At   Duration
	Data string
}

// TerminalEOT is the end-of-transmission byte that terminates the
// TerminalEcho workload's input stream.
const TerminalEOT = guest.TermEOT

// WithTerminal scripts environment input arriving at the console —
// repeatable; events accumulate. Input is delivered to the guest the
// way §2 of the paper delivers every interrupt: the I/O-active
// hypervisor captures the arriving bytes, forwards them in the epoch
// stream, and every replica makes them guest-visible at the same epoch
// boundary. Transcripts (echoed output) of replicated runs equal bare
// runs byte for byte, including across failovers and reintegrations.
func WithTerminal(script ...TerminalInput) Option {
	return func(o *clusterOptions) error {
		if len(script) == 0 {
			return errors.New("hft: empty terminal script")
		}
		for _, ev := range script {
			if ev.At <= 0 {
				return fmt.Errorf("hft: non-positive terminal input time %v", sim.Time(ev.At))
			}
			if len(ev.Data) == 0 {
				return errors.New("hft: empty terminal input data")
			}
			o.Terminal = append(o.Terminal, console.Input{At: ev.At, Data: []byte(ev.Data)})
		}
		return nil
	}
}

// ClientLoad parameterizes the simulated client population WithClientLoad
// attaches: many logical connections multiplexed over one access link
// into the cluster's NIC. Zero fields take defaults. The number of
// requests is NOT a field — it is derived from the ServeRequests
// workload's request count, so the population and the guest always
// agree on when the service is done.
type ClientLoad struct {
	// Clients is the number of concurrent logical connections the
	// requests are spread over, round-robin (default 64).
	Clients int
	// PayloadWords is the number of payload words per request frame
	// (default 4).
	PayloadWords int
	// Start is the virtual time of the first request arrival (default
	// 200 µs, past guest boot).
	Start Duration
	// MeanGap is the open-loop mean inter-arrival gap (default 50 µs).
	// Arrivals follow a seeded schedule independent of reply timing: a
	// failing-over server faces undiminished offered load.
	MeanGap Duration
	// Timeout is the client retransmission timeout (default 2 ms). A
	// client that misses its reply retransmits the same request; the
	// NIC's receiver-side dedup keeps duplicates out of the guest.
	Timeout Duration
}

// OutputCommit parameterizes WithOutputCommit. The zero value asks for
// the engine with a window of one epoch and fixed boundaries.
type OutputCommit struct {
	// Window is the maximum number of epochs the coordinator runs ahead
	// of acknowledgment (default 1 — classic output commit; each
	// epoch's deferred output is released when its frame is acked).
	// Bounded at 64.
	Window int
	// Adaptive enables output-triggered epoch boundaries: environment
	// output mid-epoch deterministically terminates the epoch shortly
	// after the triggering instruction, so output waits on the short
	// remainder of a cut-short epoch instead of a full one.
	Adaptive bool
}

// WithOutputCommit replaces the lock-step boundary protocol on the
// replication critical path with the output-commit latency engine:
// environment output is deferred, not gated — the epoch's state message
// travels to the backups while the guest keeps executing, and the
// deferred output is released the moment the message is acknowledged.
// Failover semantics are unchanged (exactly-once output holds across
// promotion); only the latency of the path from an output instruction
// to the wire shrinks. Off by default; without this option the protocol
// behaves — byte for byte — as it always has.
func WithOutputCommit(oc OutputCommit) Option {
	return func(o *clusterOptions) error {
		if oc.Window < 0 {
			return fmt.Errorf("hft: negative output-commit window %d", oc.Window)
		}
		if oc.Window > 64 {
			return fmt.Errorf("hft: output-commit window %d exceeds the bound (64)", oc.Window)
		}
		if oc.Window == 0 {
			oc.Window = 1
		}
		o.OutputCommit = replication.OutputCommit{Enabled: true, Window: oc.Window, Adaptive: oc.Adaptive}
		return nil
	}
}

// WithClientLoad drives a simulated client population into the
// cluster's network service — the measurement half of the ServeRequests
// workload. Requests arrive open-loop on their own simulated access
// link, are served by the guest through the NIC, and replies are
// timestamped at the client, so ServiceLatencies and ServiceBlackout
// report what the service's USERS observe — including the failover
// blackout, which retransmissions ride out but never hide. Requires
// WithWorkload(ServeRequests(...)).
func WithClientLoad(cl ClientLoad) Option {
	return func(o *clusterOptions) error {
		if cl.Clients < 0 || cl.PayloadWords < 0 {
			return errors.New("hft: negative client-load population parameters")
		}
		if cl.Start < 0 || cl.MeanGap < 0 || cl.Timeout < 0 {
			return errors.New("hft: negative client-load durations")
		}
		o.ClientLoad = &clientsim.Config{
			Clients:      cl.Clients,
			PayloadWords: cl.PayloadWords,
			Start:        cl.Start,
			MeanGap:      cl.MeanGap,
			Timeout:      cl.Timeout,
		}
		return nil
	}
}

// Bare switches the session to the unreplicated single-machine
// baseline — N in the paper's normalized performance N'/N. It composes
// with the workload and environment options (WithDisk, WithTerminal,
// WithClientLoad, WithProgram); replica-set options are accepted and
// ignored, so one option list can be run both ways. A bare session has
// no cluster semantics: FailBackup and AddBackup report that there is no
// replica set, and Save refuses.
func Bare() Option {
	return func(o *clusterOptions) error {
		o.Bare = true
		return nil
	}
}
