package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges B against A for one (metric, workload) pair under the
// metric's bound. worseBy is B's regression as a share of A's median.
//
// Virtual metrics repeat exactly for a seed, so any difference is a
// change of behaviour: better or worse, never "same". Host metrics are
// unresolved when the spread between the units of either run exceeds
// the bound, unless every unit of one side beats every unit of the other.
// setup_s is judged on its medians alone: its first execution is the
// cold one, so its three values always spread (the driver exempts it
// from the spread rule for the same reason).
func verdict(m metricSpec, a, b dist) (v string, worseBy float64) {
	if a.Median != 0 {
		worseBy = (b.Median - a.Median) / a.Median
	}
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	if virtualMetric(m.Name) {
		switch {
		case a.Median == b.Median:
			return "same", 0
		case worseBy > 0:
			return "worse", worseBy
		}
		return "better", worseBy
	}
	if m.Name != "setup_s" && max(a.spread(), b.spread()) > m.Bound {
		switch {
		case separated(m, b, a):
			return "better", worseBy
		case separated(m, a, b) && worseBy > m.Bound:
			return "worse", worseBy
		}
		return "unresolved", worseBy
	}
	switch {
	case worseBy > m.Bound:
		return "worse", worseBy
	case -worseBy > a.spread() && separated(m, b, a):
		return "better", worseBy
	}
	return "same", worseBy
}

// separated reports whether every value of x is better than every value
// of y. Fewer than five values a side separate by chance too often (one
// time in ten with three) to mean anything.
func separated(m metricSpec, x, y dist) bool {
	if len(x.Values) < 5 || len(y.Values) < 5 {
		return false
	}
	xs, ys := append([]float64(nil), x.Values...), append([]float64(nil), y.Values...)
	sort.Float64s(xs)
	sort.Float64s(ys)
	if m.Better == "higher" {
		return xs[0] > ys[len(ys)-1]
	}
	return xs[len(xs)-1] < ys[0]
}

// compareFiles prints one row per (end-to-end metric, workload) and the
// per-layer virtual values that differ; it returns 1 if any row is worse
// or unresolved or any virtual value differs, else 0.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	a, errA := readSet(pathA)
	b, errB := readSet(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareSets(spec, a, b, pathA, pathB)
}

func compareSets(spec *benchSpec, a, b *resultSet, nameA, nameB string) int {
	fmt.Printf("A = %s (commit %s, seed %d)\nB = %s (commit %s, seed %d)\n", nameA, a.Header["commit"], a.Seed, nameB, b.Header["commit"], b.Seed)
	if a.Seed != b.Seed || a.Scale != b.Scale {
		fmt.Println("note: seeds or scales differ; virtual metrics are only comparable at one seed and scale")
	}
	fmt.Println("ratio is B median / A median (base: A); bound is the share of A by which B may be worse")
	fmt.Printf("%-20s %-13s %12s %25s %12s %25s %8s %6s  %s\n", "metric", "workload", "A median", "A quartiles", "B median", "B quartiles", "ratio", "bound", "verdict")
	byName := map[string]*wlResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	bad := 0
	var exactDiffs []string
	for _, m := range spec.EndToEnd {
		for _, wa := range a.Workloads {
			wb, ok := byName[wa.Name]
			if !ok {
				continue
			}
			da, db := wa.E2E[m.Name], wb.E2E[m.Name]
			v, _ := verdict(m, da, db)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			ratio := 0.0
			if da.Median != 0 {
				ratio = db.Median / da.Median
			}
			fmt.Printf("%-20s %-13s %12.6g %25s %12.6g %25s %8.4f %6.3g  %s\n", m.Name, wa.Name,
				da.Median, quartiles(da), db.Median, quartiles(db), ratio, m.Bound, v)
		}
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		if wa.Failed != wb.Failed {
			exactDiffs = append(exactDiffs, fmt.Sprintf("%s: failed operations %d of %d vs %d of %d", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted))
		}
		for _, m := range spec.PerLayer {
			va, okA := wa.Layer[m.Name]
			vb, okB := wb.Layer[m.Name]
			if okA && okB && virtualMetric(m.Name) && va != vb {
				exactDiffs = append(exactDiffs, fmt.Sprintf("%s %s: %v vs %v %s", wa.Name, m.Name, va, vb, m.Unit))
			}
		}
	}
	if len(exactDiffs) > 0 {
		fmt.Printf("\n%d exact (virtual or counted) values differ:\n", len(exactDiffs))
		for _, d := range exactDiffs {
			fmt.Println("  " + d)
		}
		bad += len(exactDiffs)
	} else {
		fmt.Println("\nexact (virtual or counted) per-layer values: all equal")
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func quartiles(d dist) string {
	if d.N <= 1 {
		return "exact"
	}
	return fmt.Sprintf("%.5g..%.5g n=%d", d.Q1, d.Q3, d.N)
}
