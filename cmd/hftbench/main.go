// Command hftbench regenerates every table and figure of the paper's
// evaluation (§4) on the simulated prototype.
//
// Usage:
//
//	hftbench [-table1] [-fig2] [-fig3] [-fig4] [-ablation] [-all]
//	         [-service] [-latency] [-fleet N] [-fleet-seed S]
//	         [-scale quick|paper] [-parallel N] [-json]
//	         [-cpuprofile file] [-memprofile file]
//
// Each experiment prints the simulator's measured normalized
// performance beside the paper's published values. Absolute agreement
// is not the goal (the substrate is a calibrated simulator, not two HP
// 9000/720s); the shape — who wins, by what factor, where the curves
// bend — is.
//
// -parallel N fans the independent simulations of each experiment
// across N worker goroutines (0 = all CPUs). Every simulation is
// self-contained and deterministic, so the output is identical at any
// parallelism. -json emits the results as machine-readable JSON
// (normalized performance per figure point) for trajectory tracking.
//
// -service runs the replicated-network-service experiment (beyond the
// paper's evaluation): the guest request/response server under
// open-loop client load, bare and replicated under both protocols on
// both links with the primary failstopped mid-load, reporting
// client-observed latency quantiles and the failover blackout window.
// It is not part of -all, so the -all output stays byte-identical to
// the pinned golden (testdata/hftbench_quick.golden.json).
//
// -latency sweeps the output-commit latency/overhead frontier: the
// same replicated service, healthy (no failure injected), at every
// epoch-length x commit-window grid point, reporting client-observed
// p50/p99, median commit latency and overhead versus bare. Pinned to
// BENCH_latency.json; also not part of -all, for the same reason.
//
// -fleet N stands up N replicated clusters at once — each with its own
// seed, workload, link model and randomized fault schedule — on shared
// copy-on-write guest images and the work-stealing scheduler, and
// reports fleet aggregates: epoch-commit throughput, failover blackout
// percentiles, total guest instructions per second, and allocation per
// shard. The spec and aggregate lines are deterministic and pinned to
// BENCH_fleet.json; the wall-clock lines measure the host. See
// docs/FLEET.md.
//
// -cpuprofile / -memprofile write pprof profiles of the run (use
// -parallel 1 for a profile of the serial critical path). Inspect with
// `go tool pprof <file>`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
)

// jsonPoint is a FigurePoint with NaN ("not measured") encoded as null.
type jsonPoint struct {
	EL        float64  `json:"el"`
	Predicted float64  `json:"predicted"`
	Measured  *float64 `json:"measured"`
}

func toJSONPoints(pts []harness.FigurePoint) []jsonPoint {
	out := make([]jsonPoint, len(pts))
	for i, p := range pts {
		out[i] = jsonPoint{EL: p.EL, Predicted: p.Predicted}
		if !math.IsNaN(p.Measured) {
			m := p.Measured
			out[i].Measured = &m
		}
	}
	return out
}

// jsonOutput is the -json document: one object per requested experiment.
type jsonOutput struct {
	Scale    string                   `json:"scale"`
	Parallel int                      `json:"parallel"`
	Figure2  *jsonFigure2             `json:"figure2,omitempty"`
	Figure3  map[string][]jsonPoint   `json:"figure3,omitempty"`
	Figure4  map[string][]jsonPoint   `json:"figure4,omitempty"`
	Table1   []harness.Table1Row      `json:"table1,omitempty"`
	Ablation []harness.AblationResult `json:"ablation,omitempty"`
	Service  []harness.ServiceRow     `json:"service,omitempty"`
	Latency  []harness.LatencyRow     `json:"latency,omitempty"`
	Fleet    *jsonFleet               `json:"fleet,omitempty"`
}

// jsonFleet is the -fleet JSON block. Spec and Aggregate are
// deterministic (bit-identical at any -parallel on any host); the
// remaining fields measure this host and this run, each on its own
// output line so comparison scripts can filter them by name alongside
// "parallel".
type jsonFleet struct {
	Spec      fleet.Spec      `json:"spec"`
	Aggregate fleet.Aggregate `json:"aggregate"`
	// WallMS is the fleet's wall-clock time on this host.
	WallMS float64 `json:"wall_ms"`
	// InstrPerSec / CommitsPerSec divide the deterministic totals by
	// the wall time: guest instructions and epoch commits retired per
	// real second across the whole fleet.
	InstrPerSec   float64 `json:"instr_per_sec"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	// AllocPerShardBytes is heap allocation churn per shard — the
	// COW-sharing figure of merit (a flat guest RAM would be 1 MiB+).
	AllocPerShardBytes uint64 `json:"alloc_per_shard_bytes"`
}

type jsonFigure2 struct {
	Points   []jsonPoint `json:"points"`
	Endpoint jsonPoint   `json:"endpoint"`
}

// runFleet drives the fleet and wraps the deterministic Report with
// this host's wall-clock and allocation measurements.
func runFleet(spec fleet.Spec) *jsonFleet {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep := fleet.Run(spec)
	wall := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	fl := &jsonFleet{
		Spec:               rep.Spec,
		Aggregate:          rep.Aggregate,
		WallMS:             float64(wall.Microseconds()) / 1e3,
		AllocPerShardBytes: (after.TotalAlloc - before.TotalAlloc) / uint64(spec.Shards),
	}
	if s := wall.Seconds(); s > 0 {
		fl.InstrPerSec = float64(rep.Aggregate.Instructions) / s
		fl.CommitsPerSec = float64(rep.Aggregate.Commits) / s
	}
	return fl
}

func printFleet(fl *jsonFleet) {
	a := fl.Aggregate
	fmt.Printf("Fleet: %d shards, seed %d\n", fl.Spec.Shards, fl.Spec.Seed)
	fmt.Printf("  commits %d  guest instructions %d  virtual time %v\n",
		a.Commits, a.Instructions, a.VirtualTime)
	fmt.Printf("  failovers %d  blackout p50 %v  p99 %v  max %v\n",
		a.Failovers, a.BlackoutP50, a.BlackoutP99, a.BlackoutMax)
	fmt.Printf("  violations %d  digest %s\n", a.Violations, a.Digest)
	fmt.Printf("  wall %.0fms  %.2gM instr/s  %.0f commits/s  %d B allocated/shard\n",
		fl.WallMS, fl.InstrPerSec/1e6, fl.CommitsPerSec, fl.AllocPerShardBytes)
}

func main() { os.Exit(run()) }

// run is main's body with a return code instead of os.Exit calls, so
// the profiling defers always flush (an os.Exit would leave a
// truncated -cpuprofile and skip -memprofile entirely).
func run() int {
	var (
		table1   = flag.Bool("table1", false, "regenerate Table 1 (old vs new protocol)")
		fig2     = flag.Bool("fig2", false, "regenerate Figure 2 (CPU-intensive workload)")
		fig3     = flag.Bool("fig3", false, "regenerate Figure 3 (I/O workloads)")
		fig4     = flag.Bool("fig4", false, "regenerate Figure 4 (faster communication)")
		ablate   = flag.Bool("ablation", false, "run the §3.2 TLB-takeover ablation")
		service  = flag.Bool("service", false, "run the replicated-network-service experiment (client latency + failover blackout)")
		latency  = flag.Bool("latency", false, "sweep the output-commit latency/overhead frontier (epoch length x window depth)")
		fleetN   = flag.Int("fleet", 0, "stand up N replicated clusters on shared COW guest images and drive them to completion")
		fleetSd  = flag.Int64("fleet-seed", 19951203, "fleet schedule seed (shard i runs chaos schedule ScheduleAt(seed, i))")
		all      = flag.Bool("all", false, "regenerate everything in the paper's evaluation (does not include -service or -fleet)")
		scaleN   = flag.String("scale", "quick", "workload scale: quick or paper")
		parallel = flag.Int("parallel", 1, "concurrent simulations per experiment (0 = all CPUs)")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	var scale harness.Scale
	switch *scaleN {
	case "quick":
		scale = harness.QuickScale()
	case "paper":
		scale = harness.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "hftbench: unknown scale %q\n", *scaleN)
		return 2
	}
	workers := *parallel
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	scale.Workers = workers
	if *all {
		*table1, *fig2, *fig3, *fig4, *ablate = true, true, true, true, true
	}
	if !*table1 && !*fig2 && !*fig3 && !*fig4 && !*ablate && !*service && !*latency && *fleetN <= 0 {
		flag.Usage()
		return 2
	}

	// Flags are valid: start profiling now, so every exit path below
	// runs the defers that flush the profiles.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hftbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hftbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hftbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is sharp
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hftbench: -memprofile: %v\n", err)
			}
		}()
	}

	out := jsonOutput{Scale: scale.Name, Parallel: workers}

	if *fig2 {
		points, end := harness.Figure2(scale)
		if *jsonOut {
			ep := toJSONPoints([]harness.FigurePoint{end})[0]
			out.Figure2 = &jsonFigure2{Points: toJSONPoints(points), Endpoint: ep}
		} else {
			fmt.Println(harness.FormatFigure(
				"Figure 2. CPU-Intensive Workload (predicted NPC(EL) at paper parameters; measured on simulator)",
				map[string][]harness.FigurePoint{"CPU": points}, []string{"CPU"}))
			fmt.Printf("Endpoint: EL=%d (HP-UX max) predicted NP=%.2f (paper: 1.24)\n\n",
				int(end.EL), end.Predicted)
		}
	}
	if *fig3 {
		write, read := harness.Figure3(scale)
		if *jsonOut {
			out.Figure3 = map[string][]jsonPoint{
				"write": toJSONPoints(write), "read": toJSONPoints(read)}
		} else {
			fmt.Println(harness.FormatFigure(
				"Figure 3. Input/Output Workloads (NPW/NPR(EL))",
				map[string][]harness.FigurePoint{"Disk Write": write, "Disk Read": read},
				[]string{"Disk Write", "Disk Read"}))
		}
	}
	if *fig4 {
		eth, atm := harness.Figure4(scale)
		if *jsonOut {
			out.Figure4 = map[string][]jsonPoint{
				"ethernet": toJSONPoints(eth), "atm": toJSONPoints(atm)}
		} else {
			fmt.Println(harness.FormatFigure(
				"Figure 4. Faster Communication (10 Mbps Ethernet vs 155 Mbps ATM)",
				map[string][]harness.FigurePoint{"Ethernet": eth, "ATM": atm},
				[]string{"Ethernet", "ATM"}))
		}
	}
	if *table1 {
		rows := harness.Table1(scale)
		if *jsonOut {
			out.Table1 = rows
		} else {
			fmt.Println(harness.FormatTable1(rows))
		}
	}
	if *ablate {
		rows := harness.TLBAblationWorkers(workers)
		if *jsonOut {
			out.Ablation = rows
		} else {
			fmt.Println(harness.FormatAblation(rows))
		}
	}
	if *service {
		rows := harness.Service(scale)
		if *jsonOut {
			out.Service = rows
		} else {
			fmt.Println(harness.FormatService(rows))
		}
	}
	if *latency {
		rows := harness.Latency(scale)
		if *jsonOut {
			out.Latency = rows
		} else {
			fmt.Println(harness.FormatLatency(rows))
		}
	}
	if *fleetN > 0 {
		fl := runFleet(fleet.Spec{Shards: *fleetN, Seed: *fleetSd, Workers: workers})
		if *jsonOut {
			out.Fleet = fl
		} else {
			printFleet(fl)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "hftbench: %v\n", err)
			return 1
		}
	}
	return 0
}
