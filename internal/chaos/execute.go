package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	hft "repro"
	"repro/internal/free"
)

// ViolationKind classifies an invariant failure.
type ViolationKind uint8

const (
	// VDigest: the replicated run's guest checksum (or panic code)
	// diverged from the bare baseline.
	VDigest ViolationKind = iota + 1
	// VOutput: the console transcript diverged from the bare baseline —
	// output was lost or committed more than once.
	VOutput
	// VProgress: the session wedged — virtual time stopped advancing
	// (ErrStalled names the blocked process) or the run overran the
	// session's wall bound.
	VProgress
	// VSnapshot: a Save/Restore round trip was not byte-identical, or
	// the restore's replay verification failed.
	VSnapshot
	// VPanic: the simulation panicked (a divergence tripwire or an
	// internal invariant) — always a bug, never expected behavior.
	VPanic
	// VService: the NIC reply transcript diverged from the bare
	// baseline, or a client request went unanswered — the client
	// population could distinguish the replicated service from a
	// single machine.
	VService
)

func (k ViolationKind) String() string {
	switch k {
	case VDigest:
		return "digest"
	case VOutput:
		return "output"
	case VProgress:
		return "progress"
	case VSnapshot:
		return "snapshot"
	case VPanic:
		return "panic"
	case VService:
		return "service"
	}
	return fmt.Sprintf("violation(%d)", uint8(k))
}

// Violation reports one invariant failure.
type Violation struct {
	Kind   ViolationKind
	Detail string
}

func (v Violation) String() string { return fmt.Sprintf("%v: %s", v.Kind, v.Detail) }

// Applied records where one step actually landed — the observed
// (commit ordinal, virtual time) pair the shrinker uses to convert
// time coordinates into replayable commit coordinates.
type Applied struct {
	// Done reports whether the step was applied at all (false: the
	// workload completed first, or the op had nothing to do).
	Done bool
	// Commit/Time are the session position at application.
	Commit uint64
	Time   hft.Duration
	// Err records a non-fatal application error (the run continued).
	Err string
}

// Report is the outcome of executing one schedule.
type Report struct {
	Schedule Schedule
	// Violation is nil for a clean run.
	Violation *Violation
	// AppliedAt has one entry per schedule step.
	AppliedAt []Applied
	// Result is the completed run's result (zero if the run never
	// completed).
	Result hft.Result
	// Metrics are the run's aggregates (for a violating run, whatever
	// was collected up to the violation).
	Metrics Metrics
}

// Failed reports whether the run violated an invariant.
func (r Report) Failed() bool { return r.Violation != nil }

// maxVirtual and wedgeFactor bound how far Execute lets a run advance:
// to whichever is later, maxVirtual or wedgeFactor times the bare run's
// completion time. Every schedule the generator emits completes within
// a few hundred virtual milliseconds, even over a degraded link (at
// most about 200 times its bare run); a run still going past the bound
// has wedged, and letting it grind toward the session engine's own
// bound (20000 virtual seconds) would stall the whole campaign. Hitting
// the bound is invariant 3: no wedged coordinator.
const (
	maxVirtual  = 30 * hft.Second
	wedgeFactor = 1000
)

// Execute runs one schedule to completion and checks all five
// invariants. It never panics: simulation panics (divergence
// tripwires) are converted to VPanic violations, which is exactly what
// a campaign wants from a run that found a bug.
func Execute(s Schedule) (rep Report) {
	rep.Schedule = s
	rep.AppliedAt = make([]Applied, len(s.Steps))

	defer func() {
		if r := recover(); r != nil {
			rep.Violation = &Violation{Kind: VPanic, Detail: fmt.Sprintf("simulation panic: %v", r)}
		}
	}()

	shape, err := s.Shape()
	if err != nil {
		rep.Violation = &Violation{Kind: VPanic, Detail: err.Error()}
		return rep
	}
	bare, err := Bare(shape, s.Seed, s.Epoch)
	if err != nil {
		rep.Violation = &Violation{Kind: VPanic, Detail: err.Error()}
		return rep
	}
	limit := max(maxVirtual, wedgeFactor*bare.Time)

	col := &evCollector{}
	defer col.finish(&rep.Metrics)

	c, err := hft.NewCluster(s.ClusterOptions(shape)...)
	if err != nil {
		rep.Violation = &Violation{Kind: VPanic, Detail: fmt.Sprintf("cluster construction: %v", err)}
		return rep
	}
	defer func() { c.Close() }()
	c.Observe(col.observe)

	for i, st := range s.Steps {
		snap, err := advanceTo(c, st.At, limit)
		if err != nil {
			rep.Violation = progressViolation(err)
			return rep
		}
		rep.AppliedAt[i] = Applied{Done: true, Commit: snap.Commits, Time: snap.Now}
		if snap.Done {
			rep.AppliedAt[i].Done = false
			continue // completed before the coordinate: nothing to perturb
		}

		var blob []byte        // the checkpoint OpSaveRestore and OpRestore restore
		var held *bytes.Buffer // OpSaveRestore's recycled buffer, which blob views
		switch st.Op {
		case OpFailPrimary:
			c.FailPrimary()
		case OpFailBackup:
			err = c.FailBackup(st.Backup)
		case OpLink:
			err = c.SetLinkQuality(hft.LinkQuality{BitsPerSecond: st.Bandwidth, Latency: st.Latency, DropNext: st.Drop})
		case OpAddBackup:
			_, err = c.AddBackup()
		case OpSave:
			buf := borrowBlob()
			if err = c.Save(buf); err == nil {
				err = os.WriteFile(st.Path, buf.Bytes(), 0o644)
			}
			blobs.Put(buf)
		case OpSaveRestore:
			held = borrowBlob()
			if err := c.Save(held); err != nil {
				blobs.Put(held)
				rep.Violation = &Violation{Kind: VSnapshot, Detail: fmt.Sprintf("save: %v", err)}
				return rep
			}
			blob = held.Bytes()
		case OpRestore:
			blob, err = os.ReadFile(st.Path)
		}
		if err == nil && blob != nil {
			restored, err := RoundTrip(blob)
			if held != nil {
				blobs.Put(held)
			}
			if err != nil {
				rep.Violation = &Violation{Kind: VSnapshot, Detail: err.Error()}
				return rep
			}
			c.Close()
			c = restored
			c.Observe(col.observe)
		}
		if err != nil {
			// Perturbations racing completion lose gracefully
			// (ErrCompleted and kin); anything else is recorded but the
			// run continues — the invariants have the final word.
			rep.AppliedAt[i].Done = false
			rep.AppliedAt[i].Err = err.Error()
		}
	}

	snap, err := c.RunUntil(func(s hft.Snapshot) bool { return s.Done || s.Now >= limit })
	if err != nil {
		rep.Violation = progressViolation(err)
		return rep
	}
	if !snap.Done {
		rep.Violation = &Violation{Kind: VProgress,
			Detail: fmt.Sprintf("session wedged: no completion by t=%v (commit %d, %d epochs)", snap.Now, snap.Commits, snap.Epochs)}
		return rep
	}
	res, err := c.Result()
	if err != nil {
		rep.Violation = progressViolation(err)
		return rep
	}
	rep.Result = res
	rep.Metrics.Commits = snap.Commits
	rep.Metrics.Instructions = snap.GuestInstructions
	rep.Metrics.Time = res.Time

	lat, _ := c.ServiceLatencies()
	rep.Violation = Check(shape, bare, res, lat)
	return rep
}

// blobs holds the idle buffers Execute saves checkpoints into. A blob
// is dead once written to its file or round-tripped, within one Execute
// call, so its buffer is borrowed for the call.
var blobs free.Shelf[*bytes.Buffer]

// borrowBlob returns an empty checkpoint buffer.
func borrowBlob() *bytes.Buffer {
	if b, ok := blobs.Get(); ok {
		b.Reset()
		return b
	}
	return new(bytes.Buffer)
}

// Compare is the oracle for invariants 1, 2 and 5's transcript: it
// reports the first way got, a replicated run's result, differs from
// bare, the same workload's unreplicated run, or nil if the two cannot
// be told apart. A guest panic or a backup that saw a state-digest
// divergence fails the run even where the transcripts agree.
func Compare(bare, got hft.Result) *Violation {
	switch {
	case got.GuestPanic != 0:
		return &Violation{Kind: VDigest,
			Detail: fmt.Sprintf("guest panicked with code %#x (bare run: %#x)", got.GuestPanic, bare.GuestPanic)}
	case got.Checksum != bare.Checksum:
		return &Violation{Kind: VDigest,
			Detail: fmt.Sprintf("checksum %#x, bare run computed %#x", got.Checksum, bare.Checksum)}
	case got.Console != bare.Console:
		return &Violation{Kind: VOutput,
			Detail: fmt.Sprintf("console transcript %q, bare run produced %q", got.Console, bare.Console)}
	case got.NetReplies != bare.NetReplies:
		return &Violation{Kind: VService,
			Detail: fmt.Sprintf("reply transcript %d bytes, bare run produced %d bytes (first difference at offset %d)",
				len(got.NetReplies), len(bare.NetReplies),
				diffOffset(got.NetReplies, bare.NetReplies))}
	case got.Divergences != 0:
		return &Violation{Kind: VDigest,
			Detail: fmt.Sprintf("backup reported %d state-digest divergences", got.Divergences)}
	}
	return nil
}

// Check is Compare for a run of shape w, plus exactly-once from the
// clients' side when w has a client load: the transcript proves what
// the service emitted, lat (the run's ServiceLatencies) that every
// configured request was issued and its reply reached its client.
func Check(w Workload, bare, got hft.Result, lat hft.ServiceLatencies) *Violation {
	if v := Compare(bare, got); v != nil || w.ClientLoad == nil {
		return v
	}
	if lat.Answered != lat.Requests || lat.Requests != int(w.Guest.Ops) {
		return &Violation{Kind: VService,
			Detail: fmt.Sprintf("clients saw %d replies for %d issued requests (%d configured)",
				lat.Answered, lat.Requests, w.Guest.Ops)}
	}
	return nil
}

// advanceTo moves the session to a step coordinate. Commit coordinates
// use boundary-sampled RunUntil (the replayable pause), bounded by
// limit; time coordinates use RunFor. A coordinate already in the past
// applies immediately — the step runs at the current position.
func advanceTo(c *hft.Cluster, at Coord, limit hft.Duration) (hft.Snapshot, error) {
	switch {
	case at.Commit > 0:
		snap, err := c.RunUntil(func(s hft.Snapshot) bool {
			return s.Commits >= at.Commit || s.Now >= limit
		})
		if err == nil && !snap.Done && snap.Commits < at.Commit {
			err = fmt.Errorf("session wedged: commit %d not reached by t=%v (stuck at commit %d)",
				at.Commit, snap.Now, snap.Commits)
		}
		return snap, err
	case at.For > 0:
		return c.RunFor(at.For)
	case at.Time > c.Now():
		return c.RunFor(at.Time - c.Now())
	}
	return c.Snapshot(), nil
}

// progressViolation classifies an advancement error as invariant 3.
func progressViolation(err error) *Violation {
	if errors.Is(err, hft.ErrStalled) {
		return &Violation{Kind: VProgress, Detail: err.Error()}
	}
	return &Violation{Kind: VProgress, Detail: fmt.Sprintf("run did not complete: %v", err)}
}

// RoundTrip restores a checkpoint (with the library's own replay
// verification) and re-saves the restored session, failing unless the
// re-save reproduces blob byte for byte: invariant 4, for OpSaveRestore
// and OpRestore alike.
func RoundTrip(blob []byte) (*hft.Cluster, error) {
	restored, err := hft.Restore(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("restore: %v", err)
	}
	// The re-save is compared as it is written, never stored.
	again := matchWriter{want: blob, diff: -1}
	if err := restored.Save(&again); err != nil {
		restored.Close()
		return nil, fmt.Errorf("re-save: %v", err)
	}
	if at := again.mismatch(); at >= 0 {
		restored.Close()
		return nil, fmt.Errorf("round trip not byte-identical: saved %d bytes, re-saved %d bytes (first difference at offset %d)",
			len(blob), again.n, at)
	}
	return restored, nil
}

// matchWriter is an io.Writer that compares the stream it is handed
// against want instead of keeping it.
type matchWriter struct {
	want []byte
	n    int // bytes written so far
	diff int // offset of the first mismatch or overrun, -1 while none
}

func (m *matchWriter) Write(p []byte) (int, error) {
	if m.diff < 0 {
		rest := m.want[min(m.n, len(m.want)):]
		if d := diffOffset(p, rest); d < len(p) {
			m.diff = m.n + d
		}
	}
	m.n += len(p)
	return len(p), nil
}

// mismatch returns the first offset at which the stream written so far
// differs from want (a stream that stopped short differs where it
// ended), or -1 if they are equal.
func (m *matchWriter) mismatch() int {
	if m.diff < 0 && m.n < len(m.want) {
		return m.n
	}
	return m.diff
}

// diffOffset returns the first index where a and b differ.
func diffOffset[T string | []byte](a, b T) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
