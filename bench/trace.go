package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"

	hft "repro"
)

// tracer subscribes to the Events() stream of every cluster a traced
// unit builds. A nil *tracer is the untraced case: attach and detach do
// nothing, so no subscriber exists and publishing stays one atomic load.
type tracer struct {
	wg       sync.WaitGroup
	clusters [][]hft.Event // one stream per attached cluster, in order
}

// attach starts draining c's event stream; the drain ends when c closes.
func (t *tracer) attach(c *hft.Cluster) {
	if t == nil {
		return
	}
	ch := c.Events()
	t.clusters = append(t.clusters, nil)
	stream := &t.clusters[len(t.clusters)-1]
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for ev := range ch {
			*stream = append(*stream, ev)
		}
	}()
}

// detach waits for the stream of the cluster just closed.
func (t *tracer) detach() {
	if t != nil {
		t.wg.Wait()
	}
}

// virtualSpan is one interval on the virtual clock. Spans of one epoch
// share its number as ID; Cluster tells a ladder's rungs apart.
type virtualSpan struct {
	Name    string `json:"name"`
	Cluster int    `json:"cluster"`
	ID      uint64 `json:"id"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// virtualSummary is what the per-layer report takes from the streams.
type virtualSummary struct {
	commitLatP50, commitLatP99     float64 // µs
	occupancyP50                   float64
	epochIntervalP50, intervalP99  float64 // µs
	promoteUs, rejoinMs, xferBytes float64
	spans                          []virtualSpan
}

// summarize turns the collected streams into virtual spans. joinAt and
// joiner locate the AddBackup call of a failover unit (zero otherwise).
func (t *tracer) summarize(joinAt hft.Duration, joiner int) virtualSummary {
	v := virtualSummary{spans: []virtualSpan{}}
	var intervals, commitLats, occupancy []float64
	for ci, evs := range t.clusters {
		var lastCommit, failstop hft.Duration
		haveCommit, rejoined := false, false
		for _, ev := range evs {
			switch ev.Kind {
			case hft.EventEpochCommitted:
				if haveCommit {
					intervals = append(intervals, (ev.Time - lastCommit).Micros())
					v.spans = append(v.spans, virtualSpan{"replication.epoch_interval", ci, ev.Epoch, int64(lastCommit), int64(ev.Time)})
				}
				lastCommit, haveCommit = ev.Time, true
			case hft.EventOutputCommitted:
				occupancy = append(occupancy, float64(ev.Occupancy))
				if ev.Outputs > 0 {
					commitLats = append(commitLats, ev.CommitLatency.Micros())
					v.spans = append(v.spans, virtualSpan{"replication.commit_latency", ci, ev.Epoch, int64(ev.Time - ev.CommitLatency), int64(ev.Time)})
				}
			case hft.EventFailstop:
				if ev.Node == 0 {
					failstop = ev.Time
				}
			case hft.EventPromoted:
				v.promoteUs = (ev.Time - failstop).Micros()
				v.spans = append(v.spans, virtualSpan{"session.promote", ci, ev.Epoch, int64(failstop), int64(ev.Time)})
			case hft.EventBackupAdded:
				v.xferBytes = float64(ev.TransferBytes)
			case hft.EventBackupEpoch:
				if joiner > 0 && ev.Node == joiner && !rejoined {
					rejoined = true
					v.rejoinMs = (ev.Time - joinAt).Micros() / 1000
					v.spans = append(v.spans, virtualSpan{"session.rejoin", ci, ev.Epoch, int64(joinAt), int64(ev.Time)})
				}
			}
		}
	}
	sort.Float64s(intervals)
	sort.Float64s(commitLats)
	sort.Float64s(occupancy)
	v.epochIntervalP50, v.intervalP99 = nearestRank(intervals, 0.50), nearestRank(intervals, 0.99)
	v.commitLatP50, v.commitLatP99 = nearestRank(commitLats, 0.50), nearestRank(commitLats, 0.99)
	v.occupancyP50 = nearestRank(occupancy, 0.50)
	return v
}

// traceDump is what -trace-out writes for one workload: the first traced
// unit's host spans (offsets from the unit's start) and virtual spans,
// and the bucketed CPU profile of all traced units.
type traceDump struct {
	Workload     string             `json:"workload"`
	HostSpans    []hostSpanJSON     `json:"host_spans"`
	VirtualSpans []virtualSpan      `json:"virtual_spans"`
	ProfilePct   map[string]float64 `json:"profile_self_pct"`
	Samples      int64              `json:"profile_samples"`
}

type hostSpanJSON struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newTraceDump(name string, u *unitOut, v virtualSummary, p profileShares) traceDump {
	d := traceDump{Workload: name, VirtualSpans: v.spans, ProfilePct: p.pct, Samples: p.samples}
	var end int64
	for _, s := range u.spans {
		d.HostSpans = append(d.HostSpans, hostSpanJSON{s.Name, "unit", int64(s.Start), int64(s.End)})
		end = max(end, int64(s.End))
	}
	d.HostSpans = append([]hostSpanJSON{{"unit", "", 0, end}}, d.HostSpans...)
	return d
}

func writeTraces(path string, dumps []traceDump) error {
	data, err := json.Marshal(dumps)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
