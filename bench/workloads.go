package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	hft "repro"
	"repro/internal/fleet"
)

// sizes fixes the work in one unit of every workload.
type sizes struct {
	cpuIters       uint32
	ioOps          uint32
	svcRequests    uint32
	ladderRequests uint32
	ladderRates    []int // requests per virtual second, ascending
	fleetShards    int   // shards per unit...
	fleetSeeded    int   // ...of which this many follow --seed; the rest follow defaultSeed
}

// scales: "full" is what BENCHMARK.json measures; "smoke" exists so the
// test can run every workload in a few seconds.
var scales = map[string]sizes{
	"full":  {cpuIters: 1_000_000, ioOps: 96, svcRequests: 5000, ladderRequests: 5000, ladderRates: []int{1000, 1500, 2000, 3000, 4000}, fleetShards: 64, fleetSeeded: 1},
	"smoke": {cpuIters: 20_000, ioOps: 4, svcRequests: 300, ladderRequests: 100, ladderRates: []int{1000, 4000}, fleetShards: 6, fleetSeeded: 2},
}

// ladderLimit is the latency limit a ladder rung must meet at p99.
const ladderLimit = 10 * hft.Millisecond

// workload is one named input set (BENCHMARK.json says why each was
// chosen). setup generates its inputs from the seed and runs the bare
// baseline; unit runs the fixed work once.
type workload struct {
	name string
	// paperNP is the paper's figure for this configuration, 0 if none.
	paperNP float64
	// tail names the percentile lat_tail_us reports: the highest that is
	// steady between seeds and has at least ten samples beyond it.
	tail  string
	setup func(seed int64, sz sizes) (*inputs, error)
	unit  func(in *inputs, tr *tracer) *unitOut
}

// inputs is what set-up hands to every unit of one workload.
type inputs struct {
	seed  int64
	sz    sizes
	guest hft.Workload
	opts  []hft.Option // pair workloads: the whole cluster configuration
	bare  bareRun
	// bareFleet is the summed bare time of the fleet's guest work.
	bareFleet hft.Duration
}

// span is one host-clock interval the benchmark recorded around a call
// into the system, as offsets from the start of its unit.
type span struct {
	Name       string
	Start, End time.Duration
}

// unitOut is everything one unit produced.
type unitOut struct {
	spans []span
	start time.Time

	// Virtual results.
	virt     hft.Duration // completion time (fleet, ladder: summed)
	npBase   hft.Duration // bare time np divides by
	npTime   hft.Duration // replicated time np divides (ladder: top rung only)
	latP50   hft.Duration
	latP99   hft.Duration
	latTail  hft.Duration
	latP999  hft.Duration
	blackout hft.Duration
	maxRate  int
	commitBO hft.Duration // fleet: p99 acting-coordinator commit gap over failed-over shards
	commit50 hft.Duration // output-commit latency from ServiceLatencies
	commit99 hft.Duration

	// Counts from the final Snapshot (summed over a ladder's rungs).
	instr, epochs, actingEpochs    uint64
	msgs, bytes, acks              uint64
	intsForwarded, uncertain, divs uint64
	diskOps                        uint64
	requests, answered             int
	retransmits                    uint64
	fleetCommits                   uint64
	fleetFailovers                 int
	fleetDigest                    string
	saveBytes                      int
	saved                          []byte // svc_failover: the checkpoint, for the restore check
	joinAt                         hft.Duration
	joiner                         int

	attempted, failed int
	failures          []string
}

func newUnit() *unitOut { return &unitOut{start: time.Now()} }

// time records fn as a host span.
func (u *unitOut) time(name string, fn func()) {
	s := time.Since(u.start)
	fn()
	u.spans = append(u.spans, span{Name: name, Start: s, End: time.Since(u.start)})
}

// spanSeconds sums the spans of one name.
func (u *unitOut) spanSeconds(name string) float64 {
	var d time.Duration
	for _, s := range u.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d.Seconds()
}

// fail records a failed check; every operation of the unit then counts
// as failed.
func (u *unitOut) fail(format string, args ...any) {
	u.failures = append(u.failures, fmt.Sprintf(format, args...))
	u.failed = u.attempted
}

// addSnapshot accumulates the exact counters of a finished cluster.
func (u *unitOut) addSnapshot(s hft.Snapshot) {
	u.instr += s.GuestInstructions
	u.epochs += s.Commits
	u.actingEpochs += s.Epochs
	u.msgs += s.MessagesSent
	u.bytes += s.BytesSent
	u.acks += s.AcksReceived
	u.intsForwarded += s.IntsForwarded
	u.uncertain += s.UncertainSynthesized
	u.divs += s.Divergences
	u.diskOps += s.DiskOps
	u.requests += s.NetRequests
	u.answered += s.NetAnswered
	u.retransmits += s.NetRetransmits
}

// virtualKey fingerprints every virtual result of a unit: two units of
// one run must agree on it exactly.
func (u *unitOut) virtualKey() string {
	return fmt.Sprint(u.virt, u.npTime, u.latP50, u.latP99, u.latTail, u.latP999, u.blackout, u.maxRate, u.commitBO,
		u.commit50, u.commit99, u.instr, u.epochs, u.msgs, u.bytes, u.acks, u.intsForwarded, u.uncertain, u.divs,
		u.diskOps, u.requests, u.answered, u.retransmits, u.fleetCommits, u.fleetFailovers, u.fleetDigest, u.saveBytes)
}

var workloads = []*workload{
	{
		name:    "cpu_el32k",
		paperNP: 1.84,
		tail:    "the one job",
		setup:   pairSetup(32768, hft.ProtocolOld, false),
		unit:    pairUnit,
	},
	{
		name:    "cpu_el1k",
		paperNP: 22.24,
		tail:    "the one job",
		setup:   pairSetup(1024, hft.ProtocolOld, false),
		unit:    pairUnit,
	},
	{
		name:    "io_read",
		paperNP: 1.92,
		tail:    "the one job",
		setup:   pairSetup(1024, hft.ProtocolNew, true),
		unit:    pairUnit,
	},
	{
		name:  "svc_failover",
		tail:  "p99",
		setup: failoverSetup,
		unit:  failoverUnit,
	},
	{
		name:  "svc_ladder",
		tail:  "p99",
		setup: ladderSetup,
		unit:  ladderUnit,
	},
	{
		name:  "fleet_chaos",
		tail:  "p90",
		setup: fleetSetup,
		unit:  fleetUnit,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- pair workloads: cpu_el32k, cpu_el1k, io_read ---------------------

func pairSetup(epoch uint64, proto hft.Protocol, disk bool) func(int64, sizes) (*inputs, error) {
	return func(seed int64, sz sizes) (*inputs, error) {
		in := &inputs{seed: seed, sz: sz}
		if disk {
			// The guest picks its blocks with an LCG; the seed is its start.
			// Block choice does not move virtual time (the disk model's
			// latency is flat), so the seed also trims the 8 KiB read by up
			// to 1.5 %.
			in.guest = hft.DiskRead(sz.ioOps, 8192-4*uint32(uint64(seed)%32))
			in.guest.Seed = uint32(seed)*2654435761 | 1
		} else {
			// The CPU guest has no input but its length; the seed moves it
			// by under 0.1 %.
			in.guest = hft.CPUIntensive(sz.cpuIters + uint32(uint64(seed)%997))
		}
		in.opts = []hft.Option{
			hft.WithWorkload(in.guest),
			hft.WithSeed(seed),
			hft.WithEpochLength(epoch),
			hft.WithProtocol(proto),
			hft.WithLink(hft.Ethernet10()),
		}
		var err error
		in.bare, err = runBare(bareSpec{seed: seed, guest: in.guest})
		return in, err
	}
}

// runCluster builds a cluster, runs it to completion and closes it,
// recording the host spans of each step.
func (u *unitOut) runCluster(tr *tracer, opts ...hft.Option) (res hft.Result, snap hft.Snapshot, sl hft.ServiceLatencies, err error) {
	var c *hft.Cluster
	u.time("cluster.new", func() { c, err = hft.NewCluster(opts...) })
	if err != nil {
		return res, snap, sl, err
	}
	tr.attach(c)
	u.time("cluster.boot", func() { _, err = c.RunUntil(func(s hft.Snapshot) bool { return s.Commits >= 1 }) })
	if err == nil {
		u.time("cluster.run", func() { res, err = c.Wait(context.Background()) })
	}
	snap = c.Snapshot()
	sl, _ = c.ServiceLatencies()
	u.time("cluster.close", func() { c.Close() })
	tr.detach()
	return res, snap, sl, err
}

func pairUnit(in *inputs, tr *tracer) *unitOut {
	u := newUnit()
	u.attempted = 1
	res, snap, _, err := u.runCluster(tr, in.opts...)
	if err != nil {
		u.fail("run: %v", err)
		return u
	}
	u.addSnapshot(snap)
	u.virt, u.npTime, u.npBase = res.Time, res.Time, in.bare.time
	u.latP50, u.latP99, u.latTail = res.Time, res.Time, res.Time
	u.checkResult(res, in.bare)
	if res.Promoted {
		u.fail("promotion without a failstop")
	}
	return u
}

// checkResult holds a replicated result to the bare baseline's.
func (u *unitOut) checkResult(res hft.Result, bare bareRun) {
	switch {
	case res.GuestPanic != 0:
		u.fail("guest panic %#x", res.GuestPanic)
	case res.Checksum != bare.checksum:
		u.fail("checksum %#x, bare %#x", res.Checksum, bare.checksum)
	case res.Console != bare.console:
		u.fail("console transcript differs from bare")
	case res.NetReplies != bare.replies:
		u.fail("reply transcript differs from bare (%d vs %d bytes)", len(res.NetReplies), len(bare.replies))
	case res.Divergences != 0:
		u.fail("%d divergences", res.Divergences)
	}
}

// --- svc_failover -------------------------------------------------------

func serviceLoad(gap hft.Duration) hft.ClientLoad {
	return hft.ClientLoad{Clients: 8, MeanGap: gap, Timeout: 50 * hft.Millisecond}
}

func failoverSetup(seed int64, sz sizes) (*inputs, error) {
	in := &inputs{seed: seed, sz: sz, guest: hft.ServeRequests(sz.svcRequests, 50)}
	load := serviceLoad(250 * hft.Microsecond)
	var err error
	in.bare, err = runBare(bareSpec{seed: seed, guest: in.guest, load: &load})
	return in, err
}

func failoverUnit(in *inputs, tr *tracer) *unitOut {
	u := newUnit()
	n := int(in.sz.svcRequests)
	u.attempted = n
	var c *hft.Cluster
	var err error
	u.time("cluster.new", func() {
		c, err = hft.NewCluster(
			hft.WithWorkload(in.guest),
			hft.WithClientLoad(serviceLoad(250*hft.Microsecond)),
			hft.WithSeed(in.seed),
			hft.WithProtocol(hft.ProtocolNew),
			hft.WithLink(hft.ATM155()),
			hft.WithEpochLength(256),
			hft.WithOutputCommit(hft.OutputCommit{Window: 16, Adaptive: true}),
			hft.WithDetectTimeout(3*hft.Millisecond),
		)
	})
	if err != nil {
		u.fail("NewCluster: %v", err)
		return u
	}
	tr.attach(c)
	defer tr.detach()
	defer u.time("cluster.close", func() { c.Close() })

	until := func(name string, pred func(hft.Snapshot) bool) bool {
		var s hft.Snapshot
		u.time(name, func() { s, err = c.RunUntil(pred) })
		if err != nil {
			u.fail("%s: %v", name, err)
			return false
		}
		if s.Done && !pred(s) {
			u.fail("%s: workload completed first", name)
			return false
		}
		return true
	}
	if !until("cluster.boot", func(s hft.Snapshot) bool { return s.Commits >= 1 }) ||
		!until("cluster.run", func(s hft.Snapshot) bool { return s.NetAnswered >= n/3 }) {
		return u
	}
	failAt := c.Now()
	c.FailPrimary()
	if !until("cluster.run", func(s hft.Snapshot) bool { return s.Promoted }) {
		return u
	}
	u.joinAt = c.Now()
	u.time("cluster.addbackup", func() { u.joiner, err = c.AddBackup() })
	if err != nil {
		u.fail("AddBackup: %v", err)
		return u
	}
	if !until("cluster.run", func(s hft.Snapshot) bool { return s.NetAnswered >= 2*n/3 }) {
		return u
	}
	var buf bytes.Buffer
	u.time("cluster.save", func() { err = c.Save(&buf) })
	if err != nil {
		u.fail("Save: %v", err)
		return u
	}
	u.saved, u.saveBytes = buf.Bytes(), buf.Len()
	var res hft.Result
	u.time("cluster.run", func() { res, err = c.Wait(context.Background()) })
	if err != nil {
		u.fail("Wait: %v", err)
		return u
	}
	snap := c.Snapshot()
	u.addSnapshot(snap)
	sl, _ := c.ServiceLatencies()
	u.virt, u.npTime, u.npBase = res.Time, res.Time, in.bare.time
	u.latP50, u.latP99, u.latP999, u.latTail = sl.P50, sl.P99, sl.P999, sl.P99
	u.commit50, u.commit99 = sl.CommitP50, sl.CommitP99
	u.blackout = c.ServiceBlackout(failAt)
	u.failed = n - sl.Answered

	u.checkResult(res, in.bare)
	switch {
	case sl.Requests != n || sl.Answered != n:
		u.fail("clients saw %d replies to %d requests of %d", sl.Answered, sl.Requests, n)
	case !res.Promoted:
		u.fail("no promotion after the failstop")
	case u.joiner != 2 || snap.Nodes != 3:
		u.fail("AddBackup node missing: index %d, %d nodes", u.joiner, snap.Nodes)
	case u.blackout <= 0:
		u.fail("no reply after the failstop")
	}
	return u
}

// restoreCheck restores a checkpoint with replay verification on.
func restoreCheck(saved []byte) error {
	c, err := hft.Restore(bytes.NewReader(saved))
	if err != nil {
		return fmt.Errorf("Restore: %w", err)
	}
	return c.Close()
}

// --- svc_ladder ---------------------------------------------------------

func rateGap(rate int) hft.Duration { return hft.Second / hft.Duration(rate) }

func ladderSetup(seed int64, sz sizes) (*inputs, error) {
	in := &inputs{seed: seed, sz: sz, guest: hft.ServeRequests(sz.ladderRequests, 50)}
	// One bare run serves every rung: the reply transcript does not depend
	// on the arrival rate. It runs at the top rate, the cheapest, which is
	// also the rung np is taken at.
	load := serviceLoad(rateGap(sz.ladderRates[len(sz.ladderRates)-1]))
	var err error
	in.bare, err = runBare(bareSpec{seed: seed, guest: in.guest, load: &load})
	return in, err
}

func ladderUnit(in *inputs, tr *tracer) *unitOut {
	u := newUnit()
	n := int(in.sz.ladderRequests)
	u.attempted = n * len(in.sz.ladderRates)
	met := true // every rung so far met the limit
	unanswered := 0
	for i, rate := range in.sz.ladderRates {
		res, snap, sl, err := u.runCluster(tr,
			hft.WithWorkload(in.guest),
			hft.WithClientLoad(serviceLoad(rateGap(rate))),
			hft.WithSeed(in.seed),
			hft.WithProtocol(hft.ProtocolOld),
			hft.WithLink(hft.Ethernet10()),
			hft.WithEpochLength(1024),
		)
		if err != nil {
			u.fail("rung %d req/s: %v", rate, err)
			return u
		}
		u.addSnapshot(snap)
		u.virt += res.Time
		if i == 0 {
			u.latP50, u.latP99, u.latTail = sl.P50, sl.P99, sl.P99
		}
		if i == len(in.sz.ladderRates)-1 {
			u.npTime, u.npBase = res.Time, in.bare.time
		}
		met = met && sl.P99 <= ladderLimit && sl.Retransmits == 0 && sl.Answered == n
		if met {
			u.maxRate = rate
		}
		unanswered += n - sl.Answered
		u.checkResult(res, in.bare)
		if sl.Requests != n || sl.Answered != n {
			u.fail("rung %d req/s: clients saw %d replies to %d requests of %d", rate, sl.Answered, sl.Requests, n)
		}
	}
	if len(u.failures) == 0 {
		u.failed = unanswered
	}
	return u
}

// --- fleet_chaos --------------------------------------------------------

// fleetWorkers is the fleet's width: every core Go may use, up to four.
// Under measuredProcs that is one; the traced phase's default-GOMAXPROCS
// unit runs the fleet wide.
func fleetWorkers() int { return min(runtime.GOMAXPROCS(0), 4) }

// fleetParts splits a unit's shards between the pinned fleet seed and
// --seed. A whole fleet per seed was measured first: over ten seeds its
// guest instructions ranged 77-122 M and its virtual time +-10 %, which
// put guest_minstr_per_s at 32 % spread between runs -- input variance,
// not noise, and more than any bound may be. So most shards are the same
// in every run and --seed decides the rest.
func fleetParts(in *inputs) []fleet.Spec {
	return []fleet.Spec{
		{Shards: in.sz.fleetShards - in.sz.fleetSeeded, Seed: defaultSeed, Workers: fleetWorkers()},
		{Shards: in.sz.fleetSeeded, Seed: in.seed, Workers: fleetWorkers()},
	}
}

func fleetSetup(seed int64, sz sizes) (*inputs, error) {
	in := &inputs{seed: seed, sz: sz}
	for _, part := range fleetParts(in) {
		t, err := bareFleetTime(part.Seed, part.Shards)
		if err != nil {
			return nil, err
		}
		in.bareFleet += t
	}
	return in, nil
}

func fleetUnit(in *inputs, _ *tracer) *unitOut {
	u := newUnit()
	u.attempted = in.sz.fleetShards
	var times, blackouts []float64
	for _, part := range fleetParts(in) {
		var rep fleet.Report
		u.time("fleet.run", func() { rep = fleet.Run(part) })
		agg := rep.Aggregate
		u.virt += agg.VirtualTime
		u.instr += agg.Instructions
		u.fleetCommits += agg.Commits
		u.fleetFailovers += agg.Failovers
		u.fleetDigest += agg.Digest
		for _, s := range rep.Shards {
			times = append(times, float64(s.Metrics.Time))
			if s.Metrics.Failovers > 0 {
				blackouts = append(blackouts, float64(s.Metrics.Blackout))
			}
			if s.Violation != "" {
				u.failed++
				u.failures = append(u.failures, fmt.Sprintf("fleet seed %d shard %d: %s", part.Seed, s.Shard, s.Violation))
			}
		}
	}
	u.npTime, u.npBase = u.virt, in.bareFleet
	sort.Float64s(times)
	sort.Float64s(blackouts)
	u.latP50 = hft.Duration(nearestRank(times, 0.50))
	u.latTail = hft.Duration(nearestRank(times, 0.90))
	u.latP99 = hft.Duration(nearestRank(times, 0.99))
	u.commitBO = hft.Duration(nearestRank(blackouts, 0.99))
	return u
}
