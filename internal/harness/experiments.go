package harness

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/guest"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/perfmodel"
	"repro/internal/replication"
	"repro/internal/session"
)

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

// workloadKinds maps table names to guest workload kinds.
var workloadKinds = map[string]uint32{
	"cpu":   guest.WorkloadCPU,
	"write": guest.WorkloadDiskWrite,
	"read":  guest.WorkloadDiskRead,
}

// Table1 regenerates the paper's Table 1 on the simulator: the three
// workloads at epoch lengths 1K/2K/4K/8K under the original (§2) and
// revised (§4.3) protocols. The three bare baselines and the 24 table
// cells are all independent simulations, fanned across scale.Workers
// goroutines; rows are assembled in fixed order afterwards.
func Table1(scale Scale) []Table1Row {
	paper := perfmodel.Table1Paper()
	workloads := []string{"cpu", "write", "read"}
	els := []uint64{1024, 2048, 4096, 8192}
	protos := []replication.Protocol{replication.ProtocolOld, replication.ProtocolNew}

	bares := make([]session.Result, len(workloads))
	scale.forEach(len(workloads), func(i int) {
		bares[i] = RunBare(1, scale.workload(workloadKinds[workloads[i]]), scale.Disk)
	})

	type cell struct{ wl, el, proto int }
	var cells []cell
	for wi := range workloads {
		for ei := range els {
			for pi := range protos {
				cells = append(cells, cell{wi, ei, pi})
			}
		}
	}
	nps := make([]float64, len(cells))
	scale.forEach(len(cells), func(i int) {
		c := cells[i]
		w := scale.workload(workloadKinds[workloads[c.wl]])
		repl := RunReplicated(session.Options{
			Seed: 1, Program: session.WorkloadProgram(w), Disk: scale.Disk,
			EpochLength: els[c.el], Protocol: protos[c.proto],
		})
		check(bares[c.wl], repl)
		nps[i] = float64(repl.Time) / float64(bares[c.wl].Time)
	})

	var rows []Table1Row
	for i, c := range cells {
		if c.proto == 0 {
			wl, el := workloads[c.wl], els[c.el]
			rows = append(rows, Table1Row{
				Workload: wl, EL: el,
				OldNP: nps[i], NewNP: nps[i+1],
				PaperOld: paper[wl][int(el)][0],
				PaperNew: paper[wl][int(el)][1],
			})
		}
	}
	return rows
}

// check panics on guest-visible inconsistency between a bare run and a
// replicated run of the same workload.
func check(bare, repl session.Result) {
	if bare.Guest.Panic != 0 || repl.Guest.Panic != 0 {
		panic(fmt.Sprintf("harness: guest panic (bare %#x, repl %#x)", bare.Guest.Panic, repl.Guest.Panic))
	}
	if bare.Guest.Checksum != repl.Guest.Checksum {
		panic(fmt.Sprintf("harness: checksum mismatch bare %#x repl %#x",
			bare.Guest.Checksum, repl.Guest.Checksum))
	}
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

// Figure2 regenerates the CPU-intensive figure: the analytic NPC curve
// at paper parameters over 1K..32K, simulator measurements at the
// paper's measured epoch lengths, and the 385K endpoint. The measured
// grid points run concurrently against one shared bare baseline.
func Figure2(scale Scale) (points []FigurePoint, endpoint FigurePoint) {
	p := perfmodel.PaperCPU()
	w := scale.workload(guest.WorkloadCPU)
	bare := RunBare(1, w, scale.Disk)
	grid := perfmodel.MeasuredGrid()
	nps := make([]float64, len(grid))
	scale.forEach(len(grid), func(i int) {
		nps[i], _ = measureAgainst(bare, scale, w, uint64(grid[i]), replication.ProtocolOld, netsim.LinkConfig{})
	})
	measured := map[float64]float64{}
	for i, el := range grid {
		measured[el] = nps[i]
	}
	for _, el := range perfmodel.StandardGrid() {
		fp := FigurePoint{EL: el, Predicted: perfmodel.NPC(p, el), Measured: math.NaN()}
		if m, ok := measured[el]; ok {
			fp.Measured = m
		}
		points = append(points, fp)
	}
	endpoint = FigurePoint{
		EL:        perfmodel.HPUXMaxEpoch,
		Predicted: perfmodel.NPC(p, perfmodel.HPUXMaxEpoch),
		Measured:  math.NaN(),
	}
	return points, endpoint
}

// Figure3 regenerates the I/O figure: predicted NPW/NPR curves plus
// simulator measurements for the disk write and read benchmarks. The
// two baselines and the 2×grid measurement matrix run concurrently.
func Figure3(scale Scale) (write, read []FigurePoint) {
	w, r := perfmodel.PaperWrite(), perfmodel.PaperRead()
	grid := perfmodel.MeasuredGrid()
	kinds := []uint32{guest.WorkloadDiskWrite, guest.WorkloadDiskRead}
	bares := make([]session.Result, len(kinds))
	scale.forEach(len(kinds), func(i int) {
		bares[i] = RunBare(1, scale.workload(kinds[i]), scale.Disk)
	})
	nps := make([]float64, 2*len(grid))
	scale.forEach(len(nps), func(i int) {
		k, gi := i/len(grid), i%len(grid)
		nps[i], _ = measureAgainst(bares[k], scale, scale.workload(kinds[k]),
			uint64(grid[gi]), replication.ProtocolOld, netsim.LinkConfig{})
	})
	mw := map[float64]float64{}
	mr := map[float64]float64{}
	for i, el := range grid {
		mw[el] = nps[i]
		mr[el] = nps[len(grid)+i]
	}
	for _, el := range perfmodel.StandardGrid() {
		fw := FigurePoint{EL: el, Predicted: perfmodel.NPIO(w, el), Measured: math.NaN()}
		fr := FigurePoint{EL: el, Predicted: perfmodel.NPIO(r, el), Measured: math.NaN()}
		if m, ok := mw[el]; ok {
			fw.Measured = m
		}
		if m, ok := mr[el]; ok {
			fr.Measured = m
		}
		write = append(write, fw)
		read = append(read, fr)
	}
	return write, read
}

// Figure4 regenerates the faster-communication figure: predicted NPC
// curves for the 10 Mbps Ethernet and the 155 Mbps ATM link, plus
// simulator measurements on both links at the measured grid.
func Figure4(scale Scale) (ethernet, atm []FigurePoint) {
	base := perfmodel.PaperCPU()
	ethModel := base.WithHEpoch(perfmodel.Ethernet10Model().HEpoch())
	atmModel := base.WithHEpoch(perfmodel.ATM155Model().HEpoch())
	w := scale.workload(guest.WorkloadCPU)
	bare := RunBare(1, w, scale.Disk)
	grid := perfmodel.MeasuredGrid()
	links := []netsim.LinkConfig{netsim.Ethernet10(""), netsim.ATM155("")}
	nps := make([]float64, 2*len(grid))
	scale.forEach(len(nps), func(i int) {
		l, gi := i/len(grid), i%len(grid)
		nps[i], _ = measureAgainst(bare, scale, w, uint64(grid[gi]), replication.ProtocolOld, links[l])
	})
	me := map[float64]float64{}
	ma := map[float64]float64{}
	for i, el := range grid {
		me[el] = nps[i]
		ma[el] = nps[len(grid)+i]
	}
	for _, el := range perfmodel.StandardGrid() {
		fe := FigurePoint{EL: el, Predicted: perfmodel.NPC(ethModel, el), Measured: math.NaN()}
		fa := FigurePoint{EL: el, Predicted: perfmodel.NPC(atmModel, el), Measured: math.NaN()}
		if m, ok := me[el]; ok {
			fe.Measured = m
		}
		if m, ok := ma[el]; ok {
			fa.Measured = m
		}
		ethernet = append(ethernet, fe)
		atm = append(atm, fa)
	}
	return ethernet, atm
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

// TLBAblationWorkers runs the §3.2 demonstration matrix: the memory-stride
// workload under {random, lru} TLB replacement × {takeover on, off}.
// The hazard (divergence) must appear exactly in the random+off cell.
// The four cells are independent replicated runs, fanned concurrently
// across workers (0: serial).
func TLBAblationWorkers(workers int) []AblationResult {
	type cfg struct {
		policy   string
		takeover bool
	}
	var cfgs []cfg
	for _, policy := range []string{"random", "lru"} {
		for _, takeover := range []bool{true, false} {
			cfgs = append(cfgs, cfg{policy, takeover})
		}
	}
	out := make([]AblationResult, len(cfgs))
	ForEachWorkers(workers, len(cfgs), func(i int) {
		c := cfgs[i]
		div := 0
		res := RunReplicated(session.Options{
			Seed:          1,
			Program:       session.WorkloadProgram(guest.MemoryStride(20000)),
			EpochLength:   2048,
			Protocol:      replication.ProtocolOld,
			Machine:       machine.Config{TLBSize: 8, TLBPolicy: c.policy},
			NoTLBTakeover: !c.takeover,
			OnDivergence:  func(uint64, uint64, uint64) { div++ },
		})
		out[i] = AblationResult{
			Policy:      c.policy,
			Takeover:    c.takeover,
			Divergences: div,
			TLBFills:    res.HVStats.TLBFills,
			GuestPanic:  res.Guest.Panic,
		}
	})
	return out
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
