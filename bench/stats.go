package main

import (
	"math"
	"sort"
)

// dist summarises the repetitions of one metric: median and quartiles,
// by the rule of Python's statistics.quantiles(values, n=4), which the
// benchmark's acceptance check uses.
type dist struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func summarize(values []float64, unit string) dist {
	d := dist{N: len(values), Unit: unit, Values: values}
	if len(values) == 0 {
		return d
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	d.Median = quantile(s, 0.5)
	d.Q1, d.Q3 = quantile(s, 0.25), quantile(s, 0.75)
	return d
}

// quantile interpolates at position p·(n+1) of the sorted sample,
// clamped to its ends.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := math.Floor(pos)
	return sorted[int(lo)] + (pos-lo)*(sorted[int(lo)+1]-sorted[int(lo)])
}

// spread is the interquartile distance as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return math.Abs(d.Q3-d.Q1) / math.Abs(d.Median)
}

// nearestRank returns the p-quantile of a sorted sample by nearest
// rank, the rule the repo's own latency reports use.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}
