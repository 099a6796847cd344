package hft

import (
	"runtime"
	"testing"
)

// heap is what a stretch of the run allocated: heap objects and bytes,
// read from the runtime's cumulative counters.
type heap struct{ objects, bytes uint64 }

func allocated(run func()) heap {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return heap{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
}

// runTo advances c until pred holds and fails if the workload completed
// first.
func runTo(tb testing.TB, c *Cluster, what string, pred func(Snapshot) bool) {
	tb.Helper()
	s, err := c.RunUntil(pred)
	if err != nil {
		tb.Fatalf("%s: %v", what, err)
	}
	if !pred(s) {
		tb.Fatalf("%s: the workload completed first (%d commits, %d answered)", what, s.Commits, s.NetAnswered)
	}
}

// window returns what c allocates advancing until pred holds, less what
// one RunUntil call costs by itself: a call whose predicate already
// holds, which does not advance.
func window(tb testing.TB, c *Cluster, pred func(Snapshot) bool) heap {
	tb.Helper()
	call := allocated(func() { runTo(tb, c, "call", func(Snapshot) bool { return true }) })
	w := allocated(func() { runTo(tb, c, "window", pred) })
	return heap{w.objects - min(call.objects, w.objects), w.bytes - min(call.bytes, w.bytes)}
}

// serviceWindow runs one rung of the service ladder — ServeRequests(5000,
// 50) on the lock-step path (the original protocol, Ethernet, EL = 1024)
// at 2000 req/s from eight clients — warms it up to 1000 answers and
// measures answers 1000 → 4000: the heap per answered request.
func serviceWindow(tb testing.TB) (objects, bytes float64) {
	tb.Helper()
	c, err := NewCluster(WithWorkload(ServeRequests(5000, 50)), WithEpochLength(1024),
		WithClientLoad(ClientLoad{Clients: 8, MeanGap: Second / 2000, Timeout: 50 * Millisecond}))
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	runTo(tb, c, "warm-up", func(s Snapshot) bool { return s.NetAnswered >= 1000 })
	from := c.Snapshot().NetAnswered
	h := window(tb, c, func(s Snapshot) bool { return s.NetAnswered >= 4000 })
	n := float64(c.Snapshot().NetAnswered - from)
	return float64(h.objects) / n, float64(h.bytes) / n
}

// maxObjectsPerRequest bounds the service path's steady state: the
// completion record that carries a request frame to every replica (one
// per capture, which drains every frame pending: 0.98 per request). The
// NIC keeps the frame's words in its request log, whose chunks are the
// cluster arena's.
const maxObjectsPerRequest = 1

// TestSteadyStateAllocs pins the replicated run's steady state end to
// end: once warm, committing an epoch allocates no heap object, and
// answering a client request at most maxObjectsPerRequest. The windows
// start after warm-up, so free lists, rings and tables have reached
// their working size; what is left is what the per-epoch and per-request
// paths cost.
func TestSteadyStateAllocs(t *testing.T) {
	t.Run("epoch", func(t *testing.T) {
		c, err := NewCluster(WithWorkload(CPUIntensive(200000)), WithEpochLength(1024))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		runTo(t, c, "warm-up", func(s Snapshot) bool { return s.Commits >= 1000 })
		h := window(t, c, func(s Snapshot) bool { return s.Commits >= 5000 })
		t.Logf("%.3f heap objects per committed epoch (%d over 4000 commits)", float64(h.objects)/4000, h.objects)
		if h.objects > 0 {
			t.Errorf("%d heap objects over 4000 committed epochs, want 0", h.objects)
		}
	})
	t.Run("request", func(t *testing.T) {
		// The first service cluster of a process grows the arena's request
		// log and transcript inside the window too: 104 bytes, against 32
		// over a warm arena.
		objects, bytes := serviceWindow(t)
		t.Logf("%.3f heap objects, %.0f bytes per answered request", objects, bytes)
		if objects > maxObjectsPerRequest {
			t.Errorf("%.3f heap objects per answered request, want <= %d", objects, maxObjectsPerRequest)
		}
	})
}
