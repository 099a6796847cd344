package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	hft "repro"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/session"
)

// This file is the paper's §4 grid: Table 1, Figures 2–4 and the §3.2
// TLB ablation, each a set of independent, deterministic simulations
// fanned across workers by sched.ForEach and slotted by index, so the
// output is byte-identical at any worker count.

// scale sizes the paper's three workloads. Normalized performance is a
// ratio, so the curves' shape is scale-free; larger scales reduce
// quantization noise at the cost of simulation time.
type scale struct {
	name string
	// cpuIters is the CPU workload's iteration count (paper: 1e6
	// Dhrystone iterations ≈ 4.2e8 instructions).
	cpuIters uint32
	// diskOps is the I/O benchmarks' operation count (paper: 2048) and
	// count the bytes per operation (paper: 8 KiB blocks).
	diskOps, count uint32
	// preOp is the per-op compute phase in 3-instruction iterations
	// (≈ 15,500 instructions per op at paper scale) and privOps the
	// per-op privileged-instruction count on the kernel I/O path (≈ 1030).
	preOp, privOps uint32
	// read and write are the disk service times (zero: the paper's
	// 24.2 ms reads and 26 ms writes).
	read, write hft.Duration
}

// quickScale is small enough for tests: the device times, per-op
// computation, privileged density and block size are all scaled down by
// 4x together, so every term of the NPW/NPR balance keeps its
// paper-calibrated ratio and normalized performance lands where the
// paper's does.
var quickScale = scale{
	name: "quick", cpuIters: 6000, diskOps: 4, count: 2048, preOp: 1300, privOps: 258,
	read: hft.Duration(24.2 * float64(hft.Millisecond) / 4), write: 26 * hft.Millisecond / 4,
}

// paperScale uses the paper's device latencies, block size and per-op
// calibration with a reduced operation count (simulating all 2048 of the
// paper's operations adds nothing to a ratio).
var paperScale = scale{name: "paper", cpuIters: 12000, diskOps: 8, count: 8192, preOp: 5200, privOps: 1030}

// workload returns the options that run one of the paper's benchmarks
// ("cpu", "write" or "read") at this scale.
func (s scale) workload(name string) []hft.Option {
	var w hft.Workload
	switch name {
	case "cpu":
		w = hft.CPUIntensive(s.cpuIters)
	case "write":
		w = hft.DiskWrite(s.diskOps, s.count)
	case "read":
		w = hft.DiskRead(s.diskOps, s.count)
	}
	if name != "cpu" {
		w.PreOp, w.PrivOps = s.preOp, s.privOps
	}
	return []hft.Option{hft.WithWorkload(w), hft.WithDiskLatency(s.read, s.write)}
}

// must panics on err. Every simulation here is deterministic, so an
// error is a bug, not a condition to report.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("hftbench: %v", err))
	}
}

// simulate drives one cluster to completion. It panics on a session
// error or on any difference the chaos oracle finds from bare, the
// run's baseline; a bare run is its own baseline, which leaves only a
// guest panic to find.
func simulate(bare *hft.Result, opts ...hft.Option) hft.Result {
	c, err := hft.NewCluster(opts...)
	must(err)
	defer c.Close()
	r, err := c.Wait(context.Background())
	must(err)
	if bare == nil {
		bare = &r
	}
	if v := chaos.Compare(*bare, r); v != nil {
		panic(fmt.Sprintf("hftbench: %v", v))
	}
	return r
}

// bares runs each named workload's bare baseline, across workers.
func (s scale) bares(workers int, names ...string) []hft.Result {
	out := make([]hft.Result, len(names))
	sched.ForEach(workers, len(names), func(i int) {
		out[i] = simulate(nil, append(s.workload(names[i]), hft.Bare())...)
	})
	return out
}

// np is the paper's normalized performance N'/N: the named workload
// replicated under extra, over its bare baseline.
func (s scale) np(bare hft.Result, name string, extra ...hft.Option) float64 {
	return float64(simulate(&bare, append(s.workload(name), extra...)...).Time) / float64(bare.Time)
}

// Table1Row is one cell group of the paper's Table 1: a workload at an
// epoch length under both protocols, measured on the simulator, next to
// the paper's values.
type Table1Row struct {
	Workload string
	EL       uint64
	OldNP    float64
	NewNP    float64
	PaperOld float64
	PaperNew float64
}

// Table1 regenerates the paper's Table 1: the three workloads at epoch
// lengths 1K/2K/4K/8K under the original (§2) and revised (§4.3)
// protocols.
func Table1(s scale, workers int) []Table1Row {
	paper := perfmodel.Table1Paper()
	workloads := []string{"cpu", "write", "read"}
	els := []uint64{1024, 2048, 4096, 8192}
	protos := []hft.Protocol{hft.ProtocolOld, hft.ProtocolNew}
	bares := s.bares(workers, workloads...)
	nps := make([]float64, len(workloads)*len(els)*len(protos))
	sched.ForEach(workers, len(nps), func(i int) {
		wi, el, proto := i/len(protos)/len(els), els[i/len(protos)%len(els)], protos[i%len(protos)]
		nps[i] = s.np(bares[wi], workloads[wi], hft.WithEpochLength(el), hft.WithProtocol(proto))
	})
	var rows []Table1Row
	for i := 0; i < len(nps); i += len(protos) {
		wl, el := workloads[i/len(protos)/len(els)], els[i/len(protos)%len(els)]
		rows = append(rows, Table1Row{
			Workload: wl, EL: el,
			OldNP: nps[i], NewNP: nps[i+1],
			PaperOld: paper[wl][int(el)][0],
			PaperNew: paper[wl][int(el)][1],
		})
	}
	return rows
}

// FormatTable1 renders Table 1 next to the paper's numbers.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Normalized Performance of Original and Revised Protocol\n")
	fmt.Fprintf(&b, "(measured on the simulator; paper values in parentheses)\n\n")
	fmt.Fprintf(&b, "%-8s %-6s  %-18s %-18s\n", "Workload", "Epoch", "Old", "New")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-6d  %6.2f (%6.2f)    %6.2f (%6.2f)\n",
			r.Workload, r.EL, r.OldNP, r.PaperOld, r.NewNP, r.PaperNew)
	}
	return b.String()
}

// FigurePoint pairs an epoch length with a predicted and (optionally) a
// measured normalized performance. Measured is NaN when not sampled.
type FigurePoint struct {
	EL        float64
	Predicted float64
	Measured  float64
}

// curve is one measured series of a figure: a workload over a link,
// beside the model's prediction.
type curve struct {
	workload string
	link     hft.LinkParams
	predict  func(el float64) float64
}

// figure measures every curve at the paper's measured epoch lengths
// under the original protocol, against one bare baseline per workload,
// and returns each as the model's curve over the standard grid with the
// measurements in place.
func (s scale) figure(workers int, ss ...curve) [][]FigurePoint {
	var names []string
	for _, sr := range ss {
		if !slices.Contains(names, sr.workload) {
			names = append(names, sr.workload)
		}
	}
	bares := s.bares(workers, names...)
	grid := perfmodel.MeasuredGrid()
	nps := make([]float64, len(ss)*len(grid))
	sched.ForEach(workers, len(nps), func(i int) {
		sr, el := ss[i/len(grid)], grid[i%len(grid)]
		bare := bares[slices.Index(names, sr.workload)]
		nps[i] = s.np(bare, sr.workload, hft.WithEpochLength(uint64(el)), hft.WithLink(sr.link))
	})
	out := make([][]FigurePoint, len(ss))
	for k, sr := range ss {
		for _, el := range perfmodel.StandardGrid() {
			fp := FigurePoint{EL: el, Predicted: sr.predict(el), Measured: math.NaN()}
			if i := slices.Index(grid, el); i >= 0 {
				fp.Measured = nps[k*len(grid)+i]
			}
			out[k] = append(out[k], fp)
		}
	}
	return out
}

// Figure2 regenerates the CPU-intensive figure: the analytic NPC curve
// at paper parameters over 1K..32K, simulator measurements at the
// paper's measured epoch lengths, and the 385K endpoint.
func Figure2(s scale, workers int) (points []FigurePoint, endpoint FigurePoint) {
	p := perfmodel.PaperCPU()
	predict := func(el float64) float64 { return perfmodel.NPC(p, el) }
	points = s.figure(workers, curve{"cpu", hft.Ethernet10(), predict})[0]
	return points, FigurePoint{EL: perfmodel.HPUXMaxEpoch, Predicted: predict(perfmodel.HPUXMaxEpoch), Measured: math.NaN()}
}

// Figure3 regenerates the I/O figure: predicted NPW/NPR curves plus
// simulator measurements for the disk write and read benchmarks.
func Figure3(s scale, workers int) (write, read []FigurePoint) {
	w, r := perfmodel.PaperWrite(), perfmodel.PaperRead()
	f := s.figure(workers,
		curve{"write", hft.Ethernet10(), func(el float64) float64 { return perfmodel.NPIO(w, el) }},
		curve{"read", hft.Ethernet10(), func(el float64) float64 { return perfmodel.NPIO(r, el) }})
	return f[0], f[1]
}

// Figure4 regenerates the faster-communication figure: predicted NPC
// curves for the 10 Mbps Ethernet and the 155 Mbps ATM link, plus
// simulator measurements on both links.
func Figure4(s scale, workers int) (ethernet, atm []FigurePoint) {
	base := perfmodel.PaperCPU()
	eth := base.WithHEpoch(perfmodel.Ethernet10Model().HEpoch())
	am := base.WithHEpoch(perfmodel.ATM155Model().HEpoch())
	f := s.figure(workers,
		curve{"cpu", hft.Ethernet10(), func(el float64) float64 { return perfmodel.NPC(eth, el) }},
		curve{"cpu", hft.ATM155(), func(el float64) float64 { return perfmodel.NPC(am, el) }})
	return f[0], f[1]
}

// FormatFigure renders a figure's series as a text table (only rows with
// a measurement or on power-of-two epoch lengths, to stay readable).
func FormatFigure(title string, series map[string][]FigurePoint, order []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", title)
	fmt.Fprintf(&b, "%-8s", "EL")
	for _, name := range order {
		fmt.Fprintf(&b, "  %-22s", name)
	}
	fmt.Fprintf(&b, "\n%-8s", "")
	for range order {
		fmt.Fprintf(&b, "  %-10s  %-10s", "predicted", "measured")
	}
	fmt.Fprintln(&b)
	if len(order) == 0 {
		return b.String()
	}
	ref := series[order[0]]
	for i, pt := range ref {
		keep := !math.IsNaN(pt.Measured) || isPow2(int(pt.EL))
		for _, name := range order[1:] {
			if !math.IsNaN(series[name][i].Measured) {
				keep = true
			}
		}
		if !keep {
			continue
		}
		fmt.Fprintf(&b, "%-8.0f", pt.EL)
		for _, name := range order {
			p := series[name][i]
			if math.IsNaN(p.Measured) {
				fmt.Fprintf(&b, "  %-10.2f  %-10s", p.Predicted, "-")
			} else {
				fmt.Fprintf(&b, "  %-10.2f  %-10.2f", p.Predicted, p.Measured)
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// AblationResult reports one §3.2 TLB-takeover ablation configuration.
type AblationResult struct {
	Policy      string
	Takeover    bool
	Divergences int
	TLBFills    uint64
	GuestPanic  uint32
}

// TLBAblation runs the §3.2 demonstration matrix: the memory-stride
// workload on an 8-entry TLB under {random, lru} replacement × {takeover
// on, off}. The hazard (divergence) must appear exactly in the
// random+off cell. It is the one experiment below the public API: the
// TLB geometry, the takeover switch and divergence observation exist
// for this demonstration only, so they are session options, not hft
// ones.
func TLBAblation(workers int) []AblationResult {
	cells := []AblationResult{
		{Policy: "random", Takeover: true}, {Policy: "random"},
		{Policy: "lru", Takeover: true}, {Policy: "lru"},
	}
	sched.ForEach(workers, len(cells), func(i int) {
		c := &cells[i]
		e := session.New(session.Options{
			Seed:          1,
			Program:       session.WorkloadProgram(guest.MemoryStride(20000)),
			EpochLength:   2048,
			Protocol:      hft.ProtocolOld,
			Machine:       machine.Config{TLBSize: 8, TLBPolicy: c.Policy},
			NoTLBTakeover: !c.Takeover,
			OnDivergence:  func(uint64, uint64, uint64) { c.Divergences++ },
		})
		defer e.Close()
		must(e.RunToCompletion(nil))
		r, err := e.Result()
		must(err)
		c.TLBFills, c.GuestPanic = r.HVStats.TLBFills, r.Guest.Panic
	})
	return cells
}

// FormatAblation renders the ablation matrix.
func FormatAblation(rows []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TLB-takeover ablation (§3.2): memory-stride workload, 8-entry TLB\n\n")
	fmt.Fprintf(&b, "%-10s %-10s %-12s %-10s\n", "policy", "takeover", "divergences", "hv fills")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-10v %-12d %-10d\n", r.Policy, r.Takeover, r.Divergences, r.TLBFills)
	}
	b.WriteString("\nExpected: divergences only with (random, takeover=false) — the\n")
	b.WriteString("nondeterministic hardware the paper found, hidden by the fix.\n")
	return b.String()
}
