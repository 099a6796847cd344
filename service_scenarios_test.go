package hft

// Differential tests for the replicated network service: a guest
// request/response server behind the shared NIC, under simulated client
// load. The paper's claim — the environment cannot distinguish the
// replicated system from a single processor — is pinned here as reply
// transcripts: the byte sequence the clients receive from a replicated
// cluster equals the bare machine's, exactly once and in order, across
// failovers, reintegration chains, and checkpoint/restore.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// serveOptions builds a service scenario: the guest serves `requests`
// requests, the client population delivers them open-loop with a gap
// wide enough that failover windows land mid-load.
func serveOptions(requests uint32, gap Duration) []Option {
	return []Option{
		WithWorkload(ServeRequests(requests, 50)),
		WithClientLoad(ClientLoad{Clients: 8, MeanGap: gap}),
	}
}

func TestServiceDifferential(t *testing.T) {
	// Timeout well above the replicated tail (epoch-boundary delivery
	// plus ProtocolOld ack waits put healthy p50 near 5 ms): the
	// healthy-run assertion below is "no retransmissions", so the
	// timeout must not fire on ordinary replication overhead.
	base := []Option{
		WithWorkload(ServeRequests(24, 50)),
		WithClientLoad(ClientLoad{Clients: 8, MeanGap: 100 * Microsecond, Timeout: 50 * Millisecond}),
	}
	bare, cb := runScenario(t, append(base, Bare())...)
	if bare.NetReplies == "" {
		t.Fatal("bare run produced no reply transcript")
	}
	repl, cr := runScenario(t, base...)
	if repl.NetReplies != bare.NetReplies || repl.Checksum != bare.Checksum {
		t.Fatalf("replicated (%#x, %d reply bytes) != bare (%#x, %d reply bytes)",
			repl.Checksum, len(repl.NetReplies), bare.Checksum, len(bare.NetReplies))
	}
	// Both populations saw full service with no retransmissions (no
	// failures, timeout far above healthy latency).
	for _, c := range []*Cluster{cb, cr} {
		m, ok := c.ServiceLatencies()
		if !ok {
			t.Fatal("no client population")
		}
		if m.Requests != 24 || m.Answered != 24 {
			t.Fatalf("issued %d answered %d, want 24/24", m.Requests, m.Answered)
		}
		if m.Retransmits != 0 {
			t.Fatalf("healthy run forced %d retransmissions", m.Retransmits)
		}
		if m.P50 <= 0 || m.P99 < m.P50 || m.Max < m.P999 {
			t.Fatalf("implausible latency distribution: %+v", m)
		}
	}
}

func TestServiceFailoverDifferential(t *testing.T) {
	// Primary dies mid-load: requests keep arriving during the blackout
	// (clients retransmit; the NIC's dedup keeps duplicates out of the
	// guest), the promoted backup drains pending frames from its own
	// port (generalized P7) and re-emits the failover epoch's suppressed
	// replies exactly once. The client-visible reply stream equals the
	// bare run's for both protocols at every failure time.
	base := serveOptions(24, 500*Microsecond)
	bare, _ := runScenario(t, append(base, Bare())...)

	for _, proto := range []Protocol{ProtocolOld, ProtocolNew} {
		for _, failAt := range []Duration{3 * Millisecond, 6 * Millisecond, 10 * Millisecond} {
			repl, c := runFailing(t, []failure{{0, failAt}}, append(base,
				WithProtocol(proto),
				WithDetectTimeout(3*Millisecond))...)
			if !repl.Promoted {
				t.Fatalf("proto=%v failAt=%v: no promotion", proto, failAt)
			}
			if repl.NetReplies != bare.NetReplies || repl.Checksum != bare.Checksum {
				t.Fatalf("proto=%v failAt=%v: replicated (%#x, %d reply bytes) != bare (%#x, %d reply bytes)",
					proto, failAt, repl.Checksum, len(repl.NetReplies), bare.Checksum, len(bare.NetReplies))
			}
			if bo := c.ServiceBlackout(failAt); bo <= 0 {
				t.Errorf("proto=%v failAt=%v: no observable blackout window", proto, failAt)
			}
		}
	}
}

func TestServiceRepairChainDifferential(t *testing.T) {
	// Failover, live reintegration, then a failstop of the promoted
	// backup — the reintegrated joiner finishes the request stream. The
	// joiner's NIC port is cloned from the acting coordinator at
	// AddBackup, so requests pending across the state transfer survive
	// the second failover too.
	base := serveOptions(40, 2*Millisecond)
	bare, _ := runScenario(t, append(base, Bare())...)

	c, err := NewCluster(append(base, WithDetectTimeout(3*Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunFor(8 * Millisecond); err != nil {
		t.Fatal(err)
	}
	c.FailPrimary()
	if _, err := c.RunUntil(func(s Snapshot) bool { return s.Promoted }); err != nil {
		t.Fatal(err)
	}
	n, err := c.AddBackup()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("joiner index = %d, want 2", n)
	}
	// Let the transfer land and the joiner catch up, then kill the
	// acting coordinator mid-load; the reintegrated node takes over.
	if _, err := c.RunFor(40 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.FailBackup(1); err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.GuestPanic != 0 {
		t.Fatalf("guest panic %#x", res.GuestPanic)
	}
	if res.NetReplies != bare.NetReplies || res.Checksum != bare.Checksum {
		t.Fatalf("repair chain (%#x, %d reply bytes) != bare (%#x, %d reply bytes)",
			res.Checksum, len(res.NetReplies), bare.Checksum, len(bare.NetReplies))
	}
	m, _ := c.ServiceLatencies()
	if m.Answered != 40 {
		t.Fatalf("answered %d of 40", m.Answered)
	}
	if m.Retransmits == 0 {
		t.Error("two mid-load failovers forced no retransmissions")
	}
}

func TestServiceSnapshotRoundTrip(t *testing.T) {
	// Save mid-load — requests in flight, replies outstanding, client
	// timers armed — and restore: the replayed session must carry every
	// in-flight connection (Restore's section-by-section verification
	// covers the NIC and client-population digests) and finish with a
	// terminal result identical to the uninterrupted original.
	base := serveOptions(24, 500*Microsecond)
	c, err := NewCluster(base...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunFor(4 * Millisecond); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.NetRequests == 0 || s.NetAnswered == s.NetRequests {
		t.Fatalf("checkpoint not mid-load: %d issued, %d answered", s.NetRequests, s.NetAnswered)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}

	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Fatalf("restored run diverged:\n got %+v\nwant %+v", got, res)
	}
	mo, _ := c.ServiceLatencies()
	mr, _ := r.ServiceLatencies()
	if mo != mr {
		t.Fatalf("restored latency distribution diverged:\n got %+v\nwant %+v", mr, mo)
	}
}

func TestServiceEventsAndValidation(t *testing.T) {
	c, err := NewCluster(serveOptions(10, 100*Microsecond)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events := c.Events()
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Close()
	var reqs []uint32
	for ev := range events {
		if ev.Kind == EventNetRequest {
			if ev.Device() != "nic" {
				t.Fatalf("net-request device = %q, want nic", ev.Device())
			}
			reqs = append(reqs, ev.Request)
		}
	}
	if len(reqs) != 10 {
		t.Fatalf("saw %d net-request events, want 10", len(reqs))
	}
	for i, id := range reqs {
		if id != uint32(i+1) {
			t.Fatalf("request ids out of order: %v", reqs)
		}
	}

	// Eager cross-validation: a serve workload without clients, and
	// clients without a serve workload, are both rejected up front.
	if _, err := NewCluster(WithWorkload(ServeRequests(10, 50))); err == nil {
		t.Error("ServeRequests without WithClientLoad was accepted")
	}
	if _, err := NewCluster(WithWorkload(CPUIntensive(1000)), WithClientLoad(ClientLoad{})); err == nil {
		t.Error("WithClientLoad without ServeRequests was accepted")
	}
}

// gridRow is one row of testdata/service.golden.json or
// testdata/latency.golden.json: a configuration (the config name, plus
// epoch/window/adaptive in the latency grid) and the client-observed
// numbers pinned for it, in virtual microseconds. The two files are
// frozen — every number in them was produced by a build that predates
// this test — so a row that stops reproducing is a behaviour change.
type gridRow struct {
	Config   string `json:"config"` // "bare" or "<protocol>/<link>[+oc]"
	Epoch    uint64 `json:"epoch"`
	Window   int    `json:"window"`
	Adaptive bool   `json:"adaptive"`

	Requests    int     `json:"requests"`
	Answered    int     `json:"answered"`
	Retransmits uint64  `json:"retransmits"`
	P50         float64 `json:"p50_us"`
	P99         float64 `json:"p99_us"`
	P999        float64 `json:"p999_us"`
	Max         float64 `json:"max_us"`
	Blackout    float64 `json:"blackout_us"`
	CommitP50   float64 `json:"commit_p50_us"`
	Overhead    float64 `json:"overhead_p50"` // P50 over the bare row's
}

func readGrid(t *testing.T, path, key string, rows int) []gridRow {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var grid []gridRow
	if err := json.Unmarshal(doc[key], &grid); err != nil {
		t.Fatal(err)
	}
	if len(grid) != rows || grid[0].Config != "bare" {
		t.Fatalf("%s: %d rows starting at %q, want %d starting at bare", path, len(grid), grid[0].Config, rows)
	}
	return grid
}

func TestServiceGridGolden(t *testing.T) {
	// One load for both grids: 32 requests from 8 open-loop clients,
	// with the client timeout far above the healthy replicated tail so
	// retransmissions isolate the failover blackout.
	base := []Option{
		WithWorkload(ServeRequests(32, 50)),
		WithClientLoad(ClientLoad{Clients: 8, MeanGap: 500 * Microsecond, Timeout: 50 * Millisecond}),
	}
	bare, cb := runScenario(t, append(base, Bare())...)
	bareLat, _ := cb.ServiceLatencies()
	us := func(d Duration) float64 { return float64(d) / float64(Microsecond) }

	// run executes config — "bare" (which takes no replica options:
	// fails and extra are dropped) or "<protocol>/<link>" — and requires
	// the bare run's reply transcript of it.
	run := func(t *testing.T, config string, fails []failure, extra ...Option) (Result, *Cluster, ServiceLatencies) {
		opts := append(base, Bare())
		if config == "bare" {
			fails = nil
		} else {
			opts = append(base, extra...)
			if strings.HasPrefix(config, "new/") {
				opts = append(opts, WithProtocol(ProtocolNew))
			}
			if strings.HasSuffix(config, "/atm") {
				opts = append(opts, WithLink(ATM155()))
			}
		}
		res, c := runFailing(t, fails, opts...)
		if res.NetReplies != bare.NetReplies || res.Checksum != bare.Checksum {
			t.Fatalf("reply stream diverged from bare (%d vs %d bytes, checksum %#x vs %#x)",
				len(res.NetReplies), len(bare.NetReplies), res.Checksum, bare.Checksum)
		}
		m, _ := c.ServiceLatencies()
		return res, c, m
	}

	// The service grid: bare, then {old, new} x {ethernet, atm} on the
	// lock-step path at EL 1024 and at the output-commit operating point
	// ("+oc": a short base epoch, a window deep enough to cover the ack
	// round trip), the primary failstopped mid-load in every replicated
	// row.
	const failAt = 6 * Millisecond
	for _, want := range readGrid(t, "testdata/service.golden.json", "service", 9) {
		t.Run("service/"+want.Config, func(t *testing.T) {
			config, oc := strings.CutSuffix(want.Config, "+oc")
			extra := []Option{WithEpochLength(1024), WithDetectTimeout(3 * Millisecond)}
			if oc {
				extra = append(extra, WithEpochLength(256), WithOutputCommit(OutputCommit{Window: 16, Adaptive: true}))
			}
			res, c, m := run(t, config, []failure{{0, failAt}}, extra...)
			got := gridRow{
				Config: want.Config, Requests: m.Requests, Answered: m.Answered, Retransmits: m.Retransmits,
				P50: us(m.P50), P99: us(m.P99), P999: us(m.P999), Max: us(m.Max),
			}
			if config != "bare" {
				if !res.Promoted {
					t.Fatal("primary failstop produced no promotion")
				}
				if got.Blackout = us(c.ServiceBlackout(failAt)); got.Blackout <= 0 {
					t.Fatal("no finite blackout window around the failover")
				}
			}
			if got != want {
				t.Errorf("pinned row moved:\n got %+v\nwant %+v", got, want)
			}
		})
	}

	// The latency grid: bare, then the healthy service (old protocol,
	// Ethernet) at epoch {256, 1024, 4096} x window {lock-step, 1, 1+a,
	// 4+a, 16+a}.
	for _, want := range readGrid(t, "testdata/latency.golden.json", "latency", 16) {
		t.Run(fmt.Sprintf("latency/%s/el%d/w%d/a=%t", want.Config, want.Epoch, want.Window, want.Adaptive), func(t *testing.T) {
			extra := []Option{WithEpochLength(want.Epoch)}
			if want.Window > 0 {
				extra = append(extra, WithOutputCommit(OutputCommit{Window: want.Window, Adaptive: want.Adaptive}))
			}
			_, _, m := run(t, want.Config, nil, extra...)
			got := gridRow{
				Config: want.Config, Epoch: want.Epoch, Window: want.Window, Adaptive: want.Adaptive,
				P50: us(m.P50), P99: us(m.P99), CommitP50: us(m.CommitP50), Overhead: us(m.P50) / us(bareLat.P50),
			}
			if got != want {
				t.Errorf("pinned row moved:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
