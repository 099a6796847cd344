package hft

// Public-surface tests of the output-commit latency engine
// (WithOutputCommit): option validation, checkpointing a session with
// epochs still in the acknowledgment window, and the observation
// surface (EventOutputCommitted, ServiceLatencies commit quantiles).

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// ocCluster builds a replicated service session with the engine on.
func ocCluster(t *testing.T, oc OutputCommit, extra ...Option) *Cluster {
	t.Helper()
	opts := append([]Option{
		WithWorkload(ServeRequests(24, 50)),
		WithClientLoad(ClientLoad{Clients: 8}),
		WithEpochLength(1024),
		WithOutputCommit(oc),
	}, extra...)
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWithOutputCommitValidation pins the option's eager validation.
func TestWithOutputCommitValidation(t *testing.T) {
	if _, err := NewCluster(
		WithWorkload(CPUIntensive(100)),
		WithOutputCommit(OutputCommit{Window: -1}),
	); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative window: %v", err)
	}
	if _, err := NewCluster(
		WithWorkload(CPUIntensive(100)),
		WithOutputCommit(OutputCommit{Window: 65}),
	); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("oversized window: %v", err)
	}
	c, err := NewCluster(
		WithWorkload(CPUIntensive(100)),
		WithOutputCommit(OutputCommit{}),
	)
	if err != nil {
		t.Fatalf("zero-value OutputCommit should default, got %v", err)
	}
	c.Close()
}

// TestOutputCommitSaveRestoreMidWindow checkpoints the session at an
// arbitrary virtual time — epochs may be sent but unacknowledged, their
// deferred output retained — and pins the restored session's remaining
// execution bit-identical to the original's. The commit window and the
// epoch/time-tagged suppressed-output entries must round-trip through
// the snapshot codec for the verification pass to hold.
func TestOutputCommitSaveRestoreMidWindow(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		mk := func() *Cluster {
			return ocCluster(t, OutputCommit{Window: 8, Adaptive: adaptive})
		}
		orig := mk()
		defer orig.Close()
		if _, err := orig.RunFor(1300 * Microsecond); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatalf("adaptive=%v save: %v", adaptive, err)
		}
		restored, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("adaptive=%v restore: %v", adaptive, err)
		}
		defer restored.Close()
		finishAndCompare(t, "oc-restored-vs-original", orig, restored)
	}
}

// TestOutputCommitObservation drives the engine to completion under a
// failover and checks the public observation surface: output-committed
// events stream with sane payloads, and the client-side latency report
// carries the commit quantiles.
func TestOutputCommitObservation(t *testing.T) {
	c := ocCluster(t, OutputCommit{Window: 4, Adaptive: true}, WithDetectTimeout(2*Millisecond))
	defer c.Close()
	events := c.Events()
	if _, err := c.RunFor(2 * Millisecond); err != nil {
		t.Fatal(err)
	}
	c.FailPrimary()
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatal("no promotion")
	}
	c.Close()

	var commits, withOutput int
	for ev := range events {
		if ev.Kind != EventOutputCommitted {
			continue
		}
		commits++
		if ev.Outputs > 0 {
			withOutput++
			if ev.CommitLatency <= 0 {
				t.Fatalf("released %d outputs with non-positive latency: %v", ev.Outputs, ev)
			}
		}
		if ev.Occupancy < 0 || ev.Occupancy >= 4 {
			t.Fatalf("occupancy %d outside window: %v", ev.Occupancy, ev)
		}
		if !strings.Contains(ev.String(), "output committed") {
			t.Fatalf("String(): %q", ev.String())
		}
	}
	if commits == 0 || withOutput == 0 {
		t.Fatalf("events: %d commits, %d with output", commits, withOutput)
	}

	sl, ok := c.ServiceLatencies()
	if !ok {
		t.Fatal("no service latencies")
	}
	if sl.CommitP50 <= 0 || sl.CommitP99 < sl.CommitP50 {
		t.Fatalf("commit quantiles: p50=%v p99=%v", sl.CommitP50, sl.CommitP99)
	}
}
