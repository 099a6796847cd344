package chaos

import hft "repro"

// Metrics are per-run aggregates a fleet collects from one executed
// schedule. Every field is a virtual-time or guest-visible quantity,
// so metrics are bit-identical across worker counts and hosts — they
// feed fleet-wide aggregate goldens.
type Metrics struct {
	// Commits counts epochs committed by acting coordinators over the
	// whole run (zero if the run violated an invariant before its
	// final snapshot).
	Commits uint64
	// Instructions is the guest instructions retired on the acting
	// node.
	Instructions uint64
	// Time is the workload completion time (zero if the run never
	// completed).
	Time hft.Duration
	// Failovers counts backup promotions.
	Failovers int
	// Blackout is the longest acting-coordinator outage: from the last
	// epoch commit before an acting-node failstop to the first commit
	// after the takeover. A gap still open when the cluster closes
	// (the service never recovered) is not counted — such runs report
	// a progress violation instead.
	Blackout hft.Duration
}

// evCollector folds a cluster's event stream into the order-sensitive
// Metrics fields (failovers, blackout). It observes every cluster a run
// drives (Cluster.Observe), restored ones included: the state it carries
// over (acting node, last commit time) is exactly what a restore
// preserves, so gap accounting continues seamlessly.
type evCollector struct {
	acting     int
	lastCommit hft.Duration
	gapOpen    bool
	gapStart   hft.Duration
	failovers  int
	blackout   hft.Duration
}

func (col *evCollector) observe(ev hft.Event) {
	switch ev.Kind {
	case hft.EventEpochCommitted:
		if col.gapOpen {
			if gap := ev.Time - col.gapStart; gap > col.blackout {
				col.blackout = gap
			}
			col.gapOpen = false
		}
		col.lastCommit = ev.Time
	case hft.EventPromoted:
		col.acting = ev.Node
		col.failovers++
	case hft.EventFailstop:
		if ev.Node == col.acting && !col.gapOpen {
			col.gapOpen = true
			col.gapStart = col.lastCommit
		}
	}
}

// finish writes the event-derived fields into m.
func (col *evCollector) finish(m *Metrics) {
	m.Failovers = col.failovers
	m.Blackout = col.blackout
}
