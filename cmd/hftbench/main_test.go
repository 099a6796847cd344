package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// allJSON is `hftbench -all -json -parallel 1`, run once per test binary:
// TestAllGolden pins it, TestParallelExperimentsDeterministic compares the
// parallel run with it and TestPaperShape reads the paper's shape off it.
var allJSON = sync.OnceValues(func() ([]byte, int) {
	var out bytes.Buffer
	rc := run([]string{"-all", "-json", "-parallel", "1"}, &out)
	return out.Bytes(), rc
})

// TestAllGolden pins the paper's whole §4 at quick scale to the committed
// goldens: the serial `-all -json` document and the `-all` text the
// formatters render.
func TestAllGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/hftbench_quick.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	got, rc := allJSON()
	if rc != 0 {
		t.Fatalf("-all -json: exit code %d", rc)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-all -json differs from testdata/hftbench_quick.golden.json:\n%s", got)
	}

	want, err = os.ReadFile("../../testdata/hftbench_quick.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if rc := run([]string{"-all", "-parallel", "1"}, &out); rc != 0 {
		t.Fatalf("-all: exit code %d", rc)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-all differs from testdata/hftbench_quick.golden.txt:\n%s", out.Bytes())
	}
}

// TestParallelExperimentsDeterministic is the -parallel acceptance check:
// every simulation is deterministic and results are slotted by index, so
// `-all -json` on four workers matches the serial document in every byte
// but the reported worker count.
func TestParallelExperimentsDeterministic(t *testing.T) {
	serial, rc := allJSON()
	if rc != 0 {
		t.Fatalf("-parallel 1: exit code %d", rc)
	}
	var out bytes.Buffer
	if rc := run([]string{"-all", "-json", "-parallel", "4"}, &out); rc != 0 {
		t.Fatalf("-parallel 4: exit code %d", rc)
	}
	parallel := regexp.MustCompile(`(?m)^  "parallel": \d+,\n`)
	if got, want := parallel.ReplaceAll(out.Bytes(), nil), parallel.ReplaceAll(serial, nil); !bytes.Equal(got, want) {
		t.Errorf("-parallel 4: -all -json differs from the serial run:\n%s", out.Bytes())
	}
}

// TestPaperShape holds the `-all -json` document to the paper's shape —
// who wins, by what factor, where the curves bend — rather than to its
// bytes, so it still speaks when a calibration regenerates the golden.
// Every run behind the document already had its checksum and console
// compared with bare, and a backup digest mismatch panics the session,
// so agreement and zero divergences are not repeated here.
func TestPaperShape(t *testing.T) {
	got, rc := allJSON()
	if rc != 0 {
		t.Fatalf("-all -json: exit code %d", rc)
	}
	var d jsonOutput
	if err := json.Unmarshal(got, &d); err != nil {
		t.Fatal(err)
	}
	cell := func(t *testing.T, wl string, el uint64) Table1Row {
		for _, r := range d.Table1 {
			if r.Workload == wl && r.EL == el {
				return r
			}
		}
		t.Fatalf("no Table 1 row for %s at EL %d", wl, el)
		return Table1Row{}
	}
	at := func(t *testing.T, pts []jsonPoint, el float64) float64 {
		for _, p := range pts {
			if p.EL == el && p.Measured != nil {
				return *p.Measured
			}
		}
		t.Fatalf("no measurement at EL %.0f", el)
		return 0
	}
	ablation := func(t *testing.T, policy string, takeover bool) AblationResult {
		if len(d.Ablation) != 4 {
			t.Fatalf("ablation cells = %d, want 4", len(d.Ablation))
		}
		for _, r := range d.Ablation {
			if r.Policy == policy && r.Takeover == takeover {
				return r
			}
		}
		t.Fatalf("no ablation cell for %s, takeover=%v", policy, takeover)
		return AblationResult{}
	}
	for _, c := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"BareVsReplicatedCPU", func(t *testing.T) {
			// The paper's CPU workload at 4K epochs: NP ≈ 6.5. The simulator
			// lands in the same regime (dominated by hepoch/EL).
			if np := cell(t, "cpu", 4096).OldNP; np < 3 || np > 12 {
				t.Errorf("NP@4K = %.2f, expected the paper's regime (~6.5)", np)
			}
		}},
		{"CPUNPDecreasesWithEpochLength", func(t *testing.T) {
			last := math.Inf(1)
			for _, p := range d.Figure2.Points {
				if p.Measured == nil {
					continue
				}
				if *p.Measured >= last {
					t.Errorf("NP(%.0f) = %.2f not below NP at the previous shorter epoch (%.2f)", p.EL, *p.Measured, last)
				}
				last = *p.Measured
			}
		}},
		{"CPUMeasurementsTrackPaperShape", func(t *testing.T) {
			// Within 35 % of the paper's quoted values: the boundary cost (ack
			// round trip on the Ethernet model) matches the paper's measured
			// hepoch by construction.
			for _, el := range []uint64{1024, 2048, 4096, 8192} {
				r := cell(t, "cpu", el)
				if math.Abs(r.OldNP-r.PaperOld)/r.PaperOld > 0.35 {
					t.Errorf("NP(%d) = %.2f, paper %.2f (>35%% off)", el, r.OldNP, r.PaperOld)
				}
			}
		}},
		{"DiskWorkloadsRun", func(t *testing.T) {
			for _, wl := range []string{"write", "read"} {
				if np := cell(t, wl, 4096).OldNP; np <= 1 || np > 4 {
					t.Errorf("%s: NP = %.3f, want in (1, 4] for an I/O workload", wl, np)
				}
			}
		}},
		{"ReadNPAboveWriteNP", func(t *testing.T) {
			// Figure 3's key shape: reads cost more than writes under
			// replication (the block must be forwarded to the backup).
			if r, w := at(t, d.Figure3["read"], 4096), at(t, d.Figure3["write"], 4096); r <= w {
				t.Errorf("read NP %.3f <= write NP %.3f", r, w)
			}
		}},
		{"NewProtocolImprovesCPU", func(t *testing.T) {
			// Table 1: the improvement is large for the CPU workload (paper:
			// 6.50 -> 3.21 at 4K).
			if r := cell(t, "cpu", 4096); r.NewNP > 0.8*r.OldNP {
				t.Errorf("new NP %.2f is not a substantial improvement over %.2f", r.NewNP, r.OldNP)
			}
		}},
		{"ATMImprovesOverEthernet", func(t *testing.T) {
			if atm, eth := at(t, d.Figure4["atm"], 4096), at(t, d.Figure4["ethernet"], 4096); atm >= eth {
				t.Errorf("ATM NP %.2f >= Ethernet NP %.2f (Figure 4 shape violated)", atm, eth)
			}
		}},
		{"Table1Shape", func(t *testing.T) {
			if len(d.Table1) != 12 {
				t.Fatalf("rows = %d, want 12", len(d.Table1))
			}
			lastCPU := math.Inf(1)
			for _, r := range d.Table1 {
				if r.NewNP > r.OldNP*1.02 {
					t.Errorf("%s @%d: new %.2f worse than old %.2f", r.Workload, r.EL, r.NewNP, r.OldNP)
				}
				if r.OldNP <= 1 {
					t.Errorf("%s @%d: old NP %.2f <= 1", r.Workload, r.EL, r.OldNP)
				}
				// The CPU column decreases in EL, as in the paper.
				if r.Workload == "cpu" {
					if r.OldNP >= lastCPU {
						t.Errorf("cpu old NP not decreasing: %v then %v", lastCPU, r.OldNP)
					}
					lastCPU = r.OldNP
				}
			}
			if out := FormatTable1(d.Table1); !strings.Contains(out, "Table 1") || !strings.Contains(out, "cpu") {
				t.Error("FormatTable1 output malformed")
			}
		}},
		{"Figure2Generation", func(t *testing.T) {
			if len(d.Figure2.Points) != 32 {
				t.Fatalf("points = %d", len(d.Figure2.Points))
			}
			measured := 0
			for _, p := range d.Figure2.Points {
				if p.Measured != nil {
					measured++
					if math.Abs(*p.Measured-p.Predicted)/p.Predicted > 0.4 {
						t.Errorf("EL %.0f: measured %.2f far from predicted %.2f", p.EL, *p.Measured, p.Predicted)
					}
				}
			}
			if measured != 4 {
				t.Errorf("measured points = %d, want 4", measured)
			}
			if end := d.Figure2.Endpoint.Predicted; math.Abs(end-1.24) > 0.01 {
				t.Errorf("endpoint = %.3f, paper 1.24", end)
			}
		}},
		// §3.2 end to end: without the hypervisor's TLB takeover,
		// nondeterministic (random) TLB replacement makes the replicas'
		// instruction streams diverge; with it the same hardware is
		// invisible.
		{"TLBTakeoverAblation", func(t *testing.T) {
			on, off := ablation(t, "random", true), ablation(t, "random", false)
			if on.GuestPanic != 0 {
				t.Fatalf("guest panic %#x with takeover", on.GuestPanic)
			}
			if on.Divergences != 0 {
				t.Errorf("takeover ON: %d divergences, want 0 (the §3.2 fix must hide TLB nondeterminism)", on.Divergences)
			}
			if on.TLBFills == 0 {
				t.Error("takeover ON: no hypervisor TLB fills; the stride workload should miss constantly")
			}
			if off.Divergences == 0 {
				t.Error("takeover OFF: no divergences detected; the hazard did not manifest")
			}
		}},
		// A deterministic (LRU) TLB stays in lockstep even without the
		// takeover, which puts the root cause in replacement
		// nondeterminism, as the paper does.
		{"TLBTakeoverDeterministicPolicyNeedsNoFix", func(t *testing.T) {
			for _, takeover := range []bool{true, false} {
				r := ablation(t, "lru", takeover)
				if r.GuestPanic != 0 {
					t.Fatalf("lru, takeover=%v: guest panic %#x", takeover, r.GuestPanic)
				}
				if r.Divergences != 0 {
					t.Errorf("lru, takeover=%v: diverged %d times; replacement policy is not the cause?", takeover, r.Divergences)
				}
				if takeover && r.TLBFills == 0 {
					t.Error("lru, takeover on: no hypervisor TLB fills; the stride workload should miss constantly")
				}
			}
		}},
	} {
		t.Run(c.name, c.check)
	}
}

// TestRunExitCodes: run reports its exit code and never exits the
// process itself.
func TestRunExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-bogus"}, 2},
		{[]string{"-all", "-scale", "huge"}, 2},
		{nil, 2}, // no experiment selected
		{[]string{"-h"}, 0},
	} {
		var out bytes.Buffer
		if rc := run(c.args, &out); rc != c.want || out.Len() != 0 {
			t.Errorf("run(%q) = %d with %d bytes of results, want %d and none", c.args, rc, out.Len(), c.want)
		}
	}
}

func TestFormatFigure(t *testing.T) {
	pts := []FigurePoint{
		{EL: 1024, Predicted: 2.0, Measured: 2.1},
		{EL: 1500, Predicted: 1.9, Measured: math.NaN()},
		{EL: 2048, Predicted: 1.8, Measured: math.NaN()},
	}
	out := FormatFigure("Fig", map[string][]FigurePoint{"x": pts}, []string{"x"})
	if !strings.Contains(out, "1024") || !strings.Contains(out, "2048") {
		t.Errorf("missing rows:\n%s", out)
	}
	if strings.Contains(out, "1500") {
		t.Errorf("non-measured non-pow2 row kept:\n%s", out)
	}
}

func TestScalesDistinct(t *testing.T) {
	if quickScale.name == paperScale.name {
		t.Error("scales share a name")
	}
	if paperScale.read != 0 || paperScale.write != 0 {
		t.Error("paperScale should use the default (paper) disk latencies")
	}
}
