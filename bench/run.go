package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	hft "repro"
)

// runConfig shapes one workload's measurement.
type runConfig struct {
	seed    int64
	sz      sizes
	setups  int           // executions of the set-up phase (setup_s is their median)
	seconds time.Duration // timed repetitions run until this much time has passed...
	reps    int           // ...or exactly this many, when > 0
	traced  time.Duration // > 0: then traced units for this long under a CPU profile
}

// spanNames are the host spans units record around their calls into the
// system. They are recorded in every unit, so the per-layer report takes
// them from the untraced ones.
var spanNames = []string{"cluster.new", "cluster.boot", "cluster.run", "cluster.addbackup", "cluster.save", "cluster.close", "fleet.run"}

// measuredProcs is the GOMAXPROCS every workload is measured at. At the
// 2-CPU sandbox's default of 2 the Go scheduler settles into one of two
// states a factor 1.8 apart and flips between them within a run (README,
// "GOMAXPROCS"); what the default costs is reported per layer as
// host.default_procs_ratio.
const measuredProcs = 1

// minReps is the fewest timed units a time-bounded run makes.
const minReps = 3

// wlResult is one workload's report.
type wlResult struct {
	Name      string             `json:"name"`
	Procs     int                `json:"gomaxprocs"`
	E2E       map[string]dist    `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Failures  []string           `json:"failures,omitempty"`

	trace *traceDump
}

func us(d hft.Duration) float64 { return d.Micros() }

// runWorkload measures one workload: set-up, timed untraced units, and
// (when cfg.traced) traced units.
func runWorkload(w *workload, cfg runConfig) *wlResult {
	res := &wlResult{Name: w.name, E2E: map[string]dist{}, Correct: true}
	defaultProcs := runtime.GOMAXPROCS(measuredProcs)
	defer runtime.GOMAXPROCS(defaultProcs)
	res.Procs = measuredProcs

	var firstKey string
	account := func(u *unitOut) {
		res.Attempted += u.attempted
		res.Failed += u.failed
		res.Failures = append(res.Failures, u.failures...)
		if key := u.virtualKey(); firstKey == "" {
			firstKey = key
		} else if key != firstKey && len(u.failures) == 0 {
			res.Failures = append(res.Failures, "virtual results differ between two units of one run: "+firstKey+" vs "+key)
		}
	}

	// Set-up: inputs from the seed, the bare baseline, one warm-up unit.
	var in *inputs
	var setupS, bareS []float64
	for k := 0; k < cfg.setups; k++ {
		var err error
		var bareRaw time.Duration
		var warm *unitOut
		t := timed(func() {
			start := time.Now()
			in, err = w.setup(cfg.seed, cfg.sz)
			bareRaw = time.Since(start)
			if err == nil {
				warm = w.unit(in, nil)
			}
		})
		if err != nil {
			res.Failures = append(res.Failures, "set-up: "+err.Error())
			res.Attempted, res.Failed, res.Correct = 1, 1, false
			return res
		}
		account(warm)
		setupS = append(setupS, t.seconds())
		bareS = append(bareS, timing{raw: bareRaw, calib: t.calib}.seconds())
	}
	res.E2E["setup_s"] = summarize(setupS, "s")

	// Timed repetitions, untraced.
	var wall, raw, calib, minstr, alloc []float64
	spanS := map[string][]float64{} // per span name, reference-host seconds in each unit
	var last *unitOut
	for start := time.Now(); ; {
		if n := len(wall); cfg.reps > 0 && n >= cfg.reps || cfg.reps <= 0 && n >= minReps && time.Since(start) >= cfg.seconds {
			break
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var u *unitOut
		t := timed(func() { u = w.unit(in, nil) })
		runtime.ReadMemStats(&after)
		account(u)
		last = u
		wall = append(wall, t.seconds())
		raw = append(raw, t.raw.Seconds())
		calib = append(calib, t.calib.Seconds()*1e3)
		minstr = append(minstr, float64(u.instr)/1e6/t.seconds())
		alloc = append(alloc, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		for _, name := range spanNames {
			spanS[name] = append(spanS[name], u.spanSeconds(name)*t.seconds()/t.raw.Seconds())
		}
	}
	res.E2E["wall_s"] = summarize(wall, "s")
	res.E2E["guest_minstr_per_s"] = summarize(minstr, "Minstr/s")
	res.E2E["alloc_mb"] = summarize(alloc, "MB")
	np := float64(last.npTime) / float64(last.npBase)
	res.E2E["np"] = summarize([]float64{np}, "ratio")
	res.E2E["lat_p50_us"] = summarize([]float64{us(last.latP50)}, "us")
	res.E2E["lat_tail_us"] = summarize([]float64{us(last.latTail)}, "us")

	// The checkpoint a failover unit saved must restore, with the
	// library's replay verification on. It costs about the run so far, so
	// it is checked once per run, outside the timed units.
	var restoreS float64
	if last.saved != nil {
		var err error
		restoreS = timed(func() { err = restoreCheck(last.saved) }).seconds()
		if err != nil {
			res.Failures = append(res.Failures, err.Error())
		}
	}

	if cfg.traced > 0 {
		m := tracedPhase(w, cfg, in, res, account, defaultProcs)
		res.Layer = m

		// Host spans, from the untraced units.
		median := func(values []float64) float64 { return summarize(values, "").Median }
		m["cluster.new_ms"] = median(spanS["cluster.new"]) * 1e3
		m["cluster.boot_ms"] = median(spanS["cluster.boot"]) * 1e3
		m["cluster.run_s"] = median(spanS["cluster.run"])
		m["cluster.addbackup_ms"] = median(spanS["cluster.addbackup"]) * 1e3
		m["cluster.save_ms"] = median(spanS["cluster.save"]) * 1e3
		m["cluster.close_ms"] = median(spanS["cluster.close"]) * 1e3
		m["cluster.restore_s"] = restoreS
		m["fleet.run_s"] = median(spanS["fleet.run"])
		m["fleet.shard_ms"], m["fleet.alloc_mb_per_shard"], m["epoch.host_us"] = 0, 0, 0
		if m["fleet.run_s"] > 0 {
			m["fleet.shard_ms"] = m["fleet.run_s"] * 1e3 / float64(cfg.sz.fleetShards)
			m["fleet.alloc_mb_per_shard"] = res.E2E["alloc_mb"].Median / float64(cfg.sz.fleetShards)
		}
		if last.epochs > 0 {
			m["epoch.host_us"] = m["cluster.run_s"] * 1e6 / float64(last.epochs)
		}
		m["bare.run_s"] = median(bareS)
		m["bare.minstr_per_s"] = (in.bare.time + in.bareFleet).Seconds() * bareCyclesPerSecond / 1e6 / m["bare.run_s"]
		m["host.wall_raw_s"] = median(raw)
		m["host.calib_ms"] = median(calib)
		m["paper.np_err_pct"] = 0
		if w.paperNP > 0 {
			m["paper.np_err_pct"] = 100 * math.Abs(np-w.paperNP) / w.paperNP
		}
	}
	if len(res.Failures) > 0 {
		res.Correct = false
		if res.Failed == 0 {
			// A check outside any unit failed (determinism, restore).
			res.Failed = 1
		}
	}
	return res
}

// tracedPhase runs units with an Events() subscriber attached and the
// CPU profiler on, and returns every per-layer metric that comes from
// them. End-to-end metrics never come from here.
func tracedPhase(w *workload, cfg runConfig, in *inputs, res *wlResult, account func(*unitOut), defaultProcs int) map[string]float64 {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		res.Failures = append(res.Failures, "cpu profile: "+err.Error())
	}
	var u *unitOut // the first traced unit
	var trace *tracer
	var tracedWall []float64
	for start := time.Now(); u == nil || time.Since(start) < cfg.traced; {
		tr := &tracer{}
		var out *unitOut
		t := timed(func() { out = w.unit(in, tr) })
		account(out)
		tracedWall = append(tracedWall, t.seconds())
		if u == nil {
			u, trace = out, tr
		}
	}
	pprof.StopCPUProfile()

	m := map[string]float64{}
	shares, err := bucketProfile(prof.Bytes())
	if err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	for _, l := range hostLayers {
		m["host."+l+".self_pct"] = shares.pct[l]
	}
	m["host.handoff.pct"], m["host.gc.pct"] = shares.handoff, shares.gc
	untraced := res.E2E["wall_s"].Median
	m["trace.overhead_pct"] = 100 * (summarize(tracedWall, "s").Median/untraced - 1)

	// What the same unit costs at the process's default GOMAXPROCS.
	m["host.default_procs_ratio"] = 1
	if defaultProcs != measuredProcs {
		runtime.GOMAXPROCS(defaultProcs)
		var out *unitOut
		t := timed(func() { out = w.unit(in, nil) })
		runtime.GOMAXPROCS(measuredProcs)
		account(out)
		m["host.default_procs_ratio"] = t.seconds() / untraced
	}

	v := trace.summarize(u.joinAt, u.joiner)
	dump := newTraceDump(w.name, u, v, shares)
	res.trace = &dump

	// Exact counts from the final Snapshot.
	perEpoch := func(x uint64) float64 {
		if u.epochs == 0 {
			return 0
		}
		return float64(x) / float64(u.epochs)
	}
	m["hypervisor.epochs"] = float64(u.epochs)
	m["hypervisor.instr_per_epoch"] = 0
	if u.actingEpochs > 0 {
		m["hypervisor.instr_per_epoch"] = float64(u.instr) / float64(u.actingEpochs)
	}
	m["replication.msgs_per_epoch"] = perEpoch(u.msgs)
	m["replication.bytes_per_epoch"] = perEpoch(u.bytes)
	m["replication.acks_per_epoch"] = perEpoch(u.acks)
	m["replication.ints_forwarded"] = float64(u.intsForwarded)
	m["replication.uncertain_synthesized"] = float64(u.uncertain)
	m["replication.divergences"] = float64(u.divs)
	m["scsi.disk_ops"] = float64(u.diskOps)
	m["nic.requests"] = float64(u.requests)
	m["nic.answered"] = float64(u.answered)
	m["clientsim.retransmits"] = float64(u.retransmits)
	// Arrivals are scheduled in virtual time from the seed, so the
	// generator cannot fall behind the system it loads.
	m["clientsim.generator_late_us"] = 0
	m["fleet.commits"] = float64(u.fleetCommits)
	m["fleet.failovers"] = float64(u.fleetFailovers)
	m["cluster.save_bytes"] = float64(u.saveBytes)

	// Client-visible results that only some workloads have.
	m["client.p99_us"] = us(u.latP99)
	m["client.p999_us"] = us(u.latP999)
	m["client.blackout_us"] = us(u.blackout)
	m["client.max_rate_rps"] = float64(u.maxRate)
	m["fleet.commit_blackout_p99_us"] = us(u.commitBO)

	// Virtual spans from ServiceLatencies and the Events() stream.
	m["replication.commit_latency_p50_us"] = v.commitLatP50
	m["replication.commit_latency_p99_us"] = v.commitLatP99
	if u.commit50 > 0 && (us(u.commit50) != v.commitLatP50 || us(u.commit99) != v.commitLatP99) {
		res.Failures = append(res.Failures, fmt.Sprintf("commit latency from events (%v/%v us) differs from ServiceLatencies (%v/%v)",
			v.commitLatP50, v.commitLatP99, u.commit50, u.commit99))
	}
	m["replication.window_occupancy_p50"] = v.occupancyP50
	m["replication.epoch_interval_p50_us"] = v.epochIntervalP50
	m["replication.epoch_interval_p99_us"] = v.intervalP99
	m["session.promote_virt_us"] = v.promoteUs
	m["session.rejoin_virt_ms"] = v.rejoinMs
	m["snapshot.transfer_bytes"] = v.xferBytes
	return m
}
