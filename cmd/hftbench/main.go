// Command hftbench regenerates every table and figure of the paper's
// evaluation (§4) on the simulated prototype.
//
// Usage:
//
//	hftbench [-table1] [-fig2] [-fig3] [-fig4] [-ablation] [-all]
//	         [-fleet N] [-fleet-seed S]
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
// (normalized performance per figure point) for trajectory tracking;
// TestAllGolden pins `-all -json` to testdata/hftbench_quick.golden.json
// and the `-all` text to testdata/hftbench_quick.golden.txt. The
// experiments themselves are paper.go.
//
// -fleet N is the one experiment beyond the paper: it stands up N
// replicated clusters at once — each with its own seed, workload, link
// model and randomized fault schedule — on shared copy-on-write guest
// images and the work-stealing scheduler, and prints the fleet's
// deterministic report (commits, failovers, blackout percentiles, a
// digest over every shard). See docs/FLEET.md. Everything measured in
// host time — and the replicated-service and output-commit latency
// numbers — belongs to the benchmark in bench/, not to this command.
//
// -cpuprofile / -memprofile write pprof profiles of the run (use
// -parallel 1 for a profile of the serial critical path). Inspect with
// `go tool pprof <file>`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/fleet"
	"repro/internal/sched"
)

// jsonPoint is a FigurePoint with NaN ("not measured") encoded as null.
type jsonPoint struct {
	EL        float64  `json:"el"`
	Predicted float64  `json:"predicted"`
	Measured  *float64 `json:"measured"`
}

func toJSONPoints(pts []FigurePoint) []jsonPoint {
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
	Scale    string                 `json:"scale"`
	Parallel int                    `json:"parallel"`
	Figure2  *jsonFigure2           `json:"figure2,omitempty"`
	Figure3  map[string][]jsonPoint `json:"figure3,omitempty"`
	Figure4  map[string][]jsonPoint `json:"figure4,omitempty"`
	Table1   []Table1Row            `json:"table1,omitempty"`
	Ablation []AblationResult       `json:"ablation,omitempty"`
	Fleet    *fleet.Report          `json:"fleet,omitempty"`
}

type jsonFigure2 struct {
	Points   []jsonPoint `json:"points"`
	Endpoint jsonPoint   `json:"endpoint"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is main's body with a return code instead of os.Exit calls, so
// the profiling defers always flush (an os.Exit would leave a
// truncated -cpuprofile and skip -memprofile entirely). Results go to
// w; diagnostics to stderr. A bad flag, an unknown -scale or no
// experiment selected is exit code 2; -h is 0.
func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("hftbench", flag.ContinueOnError)
	var (
		table1   = fs.Bool("table1", false, "regenerate Table 1 (old vs new protocol)")
		fig2     = fs.Bool("fig2", false, "regenerate Figure 2 (CPU-intensive workload)")
		fig3     = fs.Bool("fig3", false, "regenerate Figure 3 (I/O workloads)")
		fig4     = fs.Bool("fig4", false, "regenerate Figure 4 (faster communication)")
		ablate   = fs.Bool("ablation", false, "run the §3.2 TLB-takeover ablation")
		fleetN   = fs.Int("fleet", 0, "stand up N replicated clusters on shared COW guest images and drive them to completion")
		fleetSd  = fs.Int64("fleet-seed", 19951203, "fleet schedule seed (shard i runs chaos schedule ScheduleAt(seed, i))")
		all      = fs.Bool("all", false, "regenerate everything in the paper's evaluation (does not include -fleet)")
		scaleN   = fs.String("scale", "quick", "workload scale: quick or paper")
		parallel = fs.Int("parallel", 1, "concurrent simulations per experiment (0 = all CPUs)")
		jsonOut  = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	sc, ok := map[string]scale{"quick": quickScale, "paper": paperScale}[*scaleN]
	if !ok {
		fmt.Fprintf(os.Stderr, "hftbench: unknown scale %q\n", *scaleN)
		return 2
	}
	workers := sched.Workers(*parallel)
	if *all {
		*table1, *fig2, *fig3, *fig4, *ablate = true, true, true, true, true
	}
	if !*table1 && !*fig2 && !*fig3 && !*fig4 && !*ablate && *fleetN <= 0 {
		fs.Usage()
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

	out := jsonOutput{Scale: sc.name, Parallel: workers}

	if *fig2 {
		points, end := Figure2(sc, workers)
		if *jsonOut {
			ep := toJSONPoints([]FigurePoint{end})[0]
			out.Figure2 = &jsonFigure2{Points: toJSONPoints(points), Endpoint: ep}
		} else {
			fmt.Fprintln(w, FormatFigure(
				"Figure 2. CPU-Intensive Workload (predicted NPC(EL) at paper parameters; measured on simulator)",
				map[string][]FigurePoint{"CPU": points}, []string{"CPU"}))
			fmt.Fprintf(w, "Endpoint: EL=%d (HP-UX max) predicted NP=%.2f (paper: 1.24)\n\n",
				int(end.EL), end.Predicted)
		}
	}
	if *fig3 {
		write, read := Figure3(sc, workers)
		if *jsonOut {
			out.Figure3 = map[string][]jsonPoint{
				"write": toJSONPoints(write), "read": toJSONPoints(read)}
		} else {
			fmt.Fprintln(w, FormatFigure(
				"Figure 3. Input/Output Workloads (NPW/NPR(EL))",
				map[string][]FigurePoint{"Disk Write": write, "Disk Read": read},
				[]string{"Disk Write", "Disk Read"}))
		}
	}
	if *fig4 {
		eth, atm := Figure4(sc, workers)
		if *jsonOut {
			out.Figure4 = map[string][]jsonPoint{
				"ethernet": toJSONPoints(eth), "atm": toJSONPoints(atm)}
		} else {
			fmt.Fprintln(w, FormatFigure(
				"Figure 4. Faster Communication (10 Mbps Ethernet vs 155 Mbps ATM)",
				map[string][]FigurePoint{"Ethernet": eth, "ATM": atm},
				[]string{"Ethernet", "ATM"}))
		}
	}
	if *table1 {
		rows := Table1(sc, workers)
		if *jsonOut {
			out.Table1 = rows
		} else {
			fmt.Fprintln(w, FormatTable1(rows))
		}
	}
	if *ablate {
		rows := TLBAblation(workers)
		if *jsonOut {
			out.Ablation = rows
		} else {
			fmt.Fprintln(w, FormatAblation(rows))
		}
	}
	if *fleetN > 0 {
		rep := fleet.Run(fleet.Spec{Shards: *fleetN, Seed: *fleetSd, Workers: workers})
		if *jsonOut {
			out.Fleet = &rep
		} else {
			a := rep.Aggregate
			fmt.Fprintf(w, "Fleet: %d shards, seed %d\n", rep.Spec.Shards, rep.Spec.Seed)
			fmt.Fprintf(w, "  commits %d  guest instructions %d  virtual time %v\n",
				a.Commits, a.Instructions, a.VirtualTime)
			fmt.Fprintf(w, "  failovers %d  blackout p50 %v  p99 %v  max %v\n",
				a.Failovers, a.BlackoutP50, a.BlackoutP99, a.BlackoutMax)
			fmt.Fprintf(w, "  violations %d  digest %s\n", a.Violations, a.Digest)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "hftbench: %v\n", err)
			return 1
		}
	}
	return 0
}
