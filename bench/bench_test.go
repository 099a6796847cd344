package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// TestSmokeEmitsExactlyTheDeclaredNames runs every workload and the
// probes at smoke scale and holds the emitted workload and metric names
// to BENCHMARK.json: the two may not drift apart.
func TestSmokeEmitsExactlyTheDeclaredNames(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "set.json")
	if code := run([]string{"-scale", "smoke", "-reps", "1", "-json", out}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var wantWorkloads, gotWorkloads, wantE2E, wantLayer []string
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range spec.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	for _, n := range append(append(append([]string(nil), wantWorkloads...), wantE2E...), wantLayer...) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the form BENCHMARK.json allows", n)
		}
	}

	for _, w := range set.Workloads {
		gotWorkloads = append(gotWorkloads, w.Name)
		if !w.Correct {
			t.Errorf("%s: checks failed: %v", w.Name, w.Failures)
		}
		var e2e, layer []string
		for n, d := range w.E2E {
			e2e = append(e2e, n)
			if d.Median == 0 || math.IsNaN(d.Median) || math.IsInf(d.Median, 0) {
				t.Errorf("%s: end-to-end metric %s = %v; it must be a nonzero number", w.Name, n, d.Median)
			}
		}
		for n := range w.Layer {
			layer = append(layer, n)
		}
		for n := range set.Probes {
			layer = append(layer, n)
		}
		sort.Strings(e2e)
		sort.Strings(layer)
		if !equal(e2e, wantE2E) {
			t.Errorf("%s: end-to-end metrics\n got %v\nwant %v", w.Name, e2e, wantE2E)
		}
		if !equal(layer, wantLayer) {
			t.Errorf("%s: per-layer metrics\n got %v\nwant %v", w.Name, layer, wantLayer)
		}
		// The driver's one-line summaries must be producible for both modes.
		one := &resultSet{Workloads: []*wlResult{w}, Probes: set.Probes}
		for _, traced := range []bool{false, true} {
			if _, err := driverLine(spec, one, traced); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
	if !equal(gotWorkloads, wantWorkloads) {
		t.Errorf("workloads\n got %v\nwant %v", gotWorkloads, wantWorkloads)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestVerdict(t *testing.T) {
	host := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	rate := metricSpec{Name: "guest_minstr_per_s", Better: "higher", Bound: 0.10}
	virt := metricSpec{Name: "np", Better: "lower", Bound: 0.10}
	tight := func(center float64) dist {
		return summarize([]float64{center * 0.99, center, center * 1.01, center * 1.005, center * 0.995}, "s")
	}
	wide := func(center float64) dist {
		return summarize([]float64{center * 0.8, center, center * 1.2, center * 1.1, center * 0.9}, "s")
	}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b dist
		want string
	}{
		{"within the bound", host, tight(1), tight(1.05), "same"},
		{"worse beyond the bound", host, tight(1), tight(1.2), "worse"},
		{"better and separated", host, tight(1), tight(0.8), "better"},
		{"spread wider than the bound", host, wide(1), wide(1.05), "unresolved"},
		{"wide but every unit better", host, wide(1), tight(0.5), "better"},
		{"higher is better: a drop is worse", rate, tight(100), tight(80), "worse"},
		{"higher is better: a rise is better", rate, tight(100), tight(120), "better"},
		{"virtual values equal", virt, summarize([]float64{1.8}, ""), summarize([]float64{1.8}, ""), "same"},
		{"virtual values differ at all", virt, summarize([]float64{1.8}, ""), summarize([]float64{1.8001}, ""), "worse"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestQuantileMatchesPython pins the quartile rule to the one the
// acceptance check uses, statistics.quantiles(values, n=4).
func TestQuantileMatchesPython(t *testing.T) {
	d := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, "")
	if d.Q1 != 2.75 || d.Median != 5.5 || d.Q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", d.Q1, d.Median, d.Q3)
	}
}
