// Command bench is the repository's layered benchmark: six fixed-work
// workloads driven through the public hft surface, reporting host speed,
// virtual-time fidelity and client latency end to end, and a per-layer
// breakdown from traced units. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const defaultSeed = 19951203

// metricSpec is one entry of BENCHMARK.json's metric lists.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units and
// bounds are written down. The program reads it instead of repeating it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// resultSet is what -json writes and -compare reads.
type resultSet struct {
	Header    map[string]string  `json:"header"`
	Seed      int64              `json:"seed"`
	Scale     string             `json:"scale"`
	Workloads []*wlResult        `json:"workloads"`
	Probes    map[string]float64 `json:"probes,omitempty"`
}

func header() map[string]string {
	h := map[string]string{
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h["commit"] = s.Value
			}
		}
	}
	return h
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "all", "workload to run, or all")
		seed         = fs.Int64("seed", defaultSeed, "input seed")
		seconds      = fs.Float64("seconds", 10, "how long the timed units of one workload run")
		reps         = fs.Int("reps", 0, "timed units per workload; 0 runs for -seconds")
		trace        = fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (traced units, probes); default both")
		traceOut     = fs.String("trace-out", "", "write the traced units' spans and bucketed profile to this file")
		scale        = fs.String("scale", "full", "unit sizes: full or smoke")
		jsonOut      = fs.String("json", "", "write the whole result set to this file (input to -compare)")
		compare      = fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1))
	}
	if *seed == 0 {
		*seed = defaultSeed // hft refuses a zero seed
	}
	sz, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q\n", *scale)
		return 2
	}
	selected := workloads
	if *workloadName != "all" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []*workload{w}
	}

	window := time.Duration(*seconds * float64(time.Second))
	cfg := runConfig{seed: *seed, sz: sz, setups: 3, seconds: window, reps: *reps}
	probeTime := 200 * time.Millisecond
	if *scale == "smoke" {
		cfg.setups, probeTime = 1, 2*time.Millisecond
	}
	switch *trace {
	case 0:
	case 1:
		// The untraced units here only anchor trace.overhead_pct.
		cfg.setups, cfg.seconds, cfg.traced = 1, window/4, window/3
	default:
		cfg.traced = window / 3
	}
	if *scale == "smoke" && cfg.traced > 0 {
		cfg.traced = time.Millisecond
	}

	set := &resultSet{Header: header(), Seed: *seed, Scale: *scale}
	fmt.Printf("bench: GOMAXPROCS=%s nproc=%s %s commit=%s seed=%d scale=%s\n",
		set.Header["gomaxprocs"], set.Header["nproc"], set.Header["go"], set.Header["commit"], *seed, *scale)
	fmt.Println("clocks: host = this process's wall time in reference-host seconds (see calib.go); virtual = simulated time, exact for a seed")
	correct := true
	var dumps []traceDump
	for _, w := range selected {
		res := runWorkload(w, cfg)
		set.Workloads = append(set.Workloads, res)
		correct = correct && res.Correct
		if res.trace != nil {
			dumps = append(dumps, *res.trace)
		}
		printWorkload(os.Stdout, spec, w, res)
	}
	if cfg.traced > 0 {
		set.Probes = runProbes(probeTime)
		printProbes(os.Stdout, spec, set.Probes)
	}
	if *traceOut != "" {
		if err := writeTraces(*traceOut, dumps); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if len(selected) == 1 && (*trace == 0 || *trace == 1) {
		line, err := driverLine(spec, set, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(line)
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: output checks failed")
		return 1
	}
	return 0
}

// layerValue looks a per-layer metric up in the workload's own report
// or among the probes.
func layerValue(set *resultSet, res *wlResult, name string) (float64, bool) {
	if v, ok := res.Layer[name]; ok {
		return v, true
	}
	v, ok := set.Probes[name]
	return v, ok
}

// driverLine is the one-object summary the benchmark driver reads:
// every end-to-end metric untraced, every per-layer metric traced.
func driverLine(spec *benchSpec, set *resultSet, traced bool) (string, error) {
	res := set.Workloads[0]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range spec.PerLayer {
			v, ok := layerValue(set, res, m.Name)
			if !ok {
				return "", fmt.Errorf("per-layer metric %q in BENCHMARK.json is not measured", m.Name)
			}
			metrics[m.Name] = value{v, m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			d, ok := res.E2E[m.Name]
			if !ok {
				return "", fmt.Errorf("end-to-end metric %q in BENCHMARK.json is not measured", m.Name)
			}
			metrics[m.Name] = value{d.Median, m.Unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	return string(out), err
}

// virtualMetric reports whether a metric is on the virtual clock or an
// exact count: for one seed it repeats exactly, so two result sets are
// compared for equality, not within a bound.
func virtualMetric(name string) bool {
	switch name {
	case "np", "lat_p50_us", "lat_tail_us", "cluster.save_bytes", "fleet.commits", "fleet.failovers", "fleet.commit_blackout_p99_us":
		return true
	}
	for _, p := range []string{"hypervisor.", "replication.", "scsi.", "nic.", "clientsim.", "session.", "snapshot.", "client.", "paper."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func clockOf(name string) string {
	if virtualMetric(name) {
		return "virtual"
	}
	return "host"
}

func printWorkload(out *os.File, spec *benchSpec, w *workload, res *wlResult) {
	why := ""
	for _, sw := range spec.Workloads {
		if sw.Name == w.name {
			why = sw.Why
		}
	}
	fmt.Fprintf(out, "\n== %s (GOMAXPROCS=%d) — %s\n", w.name, res.Procs, why)
	fmt.Fprintf(out, "   operations attempted %d, failed %d (failed_frac %.4g)\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, f := range res.Failures {
		fmt.Fprintf(out, "   FAILED: %s\n", f)
	}
	for _, m := range spec.EndToEnd {
		d, ok := res.E2E[m.Name]
		if !ok {
			continue
		}
		note := ""
		if m.Name == "lat_tail_us" {
			note = "  tail = " + w.tail
		}
		if d.N > 1 {
			fmt.Fprintf(out, "   %-22s %14.6g %-9s %-7s median of %d, quartiles %.6g .. %.6g%s\n", m.Name, d.Median, m.Unit, clockOf(m.Name), d.N, d.Q1, d.Q3, note)
		} else {
			fmt.Fprintf(out, "   %-22s %14.6g %-9s %-7s%s\n", m.Name, d.Median, m.Unit, clockOf(m.Name), note)
		}
	}
	if res.Layer == nil {
		return
	}
	fmt.Fprintln(out, "   -- per layer (traced units) --")
	for _, m := range spec.PerLayer {
		if v, ok := res.Layer[m.Name]; ok {
			fmt.Fprintf(out, "   %-38s %14.6g %-9s %s\n", m.Name, v, m.Unit, clockOf(m.Name))
		}
	}
}

func printProbes(out *os.File, spec *benchSpec, probes map[string]float64) {
	fmt.Fprintln(out, "\n== layer probes (direct calls, once per invocation)")
	names := make([]string, 0, len(probes))
	for n := range probes {
		names = append(names, n)
	}
	sort.Strings(names)
	unit := map[string]string{}
	for _, m := range spec.PerLayer {
		unit[m.Name] = m.Unit
	}
	for _, n := range names {
		fmt.Fprintf(out, "   %-38s %14.6g %-9s host\n", n, probes[n], unit[n])
	}
}
