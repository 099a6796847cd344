package session

import (
	"testing"

	"repro/internal/clientsim"
	"repro/internal/guest"
	"repro/internal/sim"
)

// serveOpts builds a network-service session: the guest serves requests
// request frames, a simulated client population delivers exactly that
// many distinct requests.
func serveOpts(requests int) Options {
	return Options{
		Seed:        1,
		Program:     WorkloadProgram(guest.ServeRequests(uint32(requests), 50)),
		EpochLength: 1024,
		ClientLoad:  &clientsim.Config{Requests: requests, Clients: 8},
	}
}

// TestServeBareCompletes is the end-to-end smoke test of the service
// stack on bare hardware: NIC, guest server loop, client population.
func TestServeBareCompletes(t *testing.T) {
	o := serveOpts(16)
	o.Bare = true
	e := New(o)
	defer e.Close()
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	res, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Guest.Panic != 0 {
		t.Fatalf("guest panicked: %#x", res.Guest.Panic)
	}
	if res.NetReplies == "" {
		t.Fatal("no reply transcript")
	}
	m := e.Clients().Measure()
	if m.Answered != 16 {
		t.Fatalf("answered %d of 16", m.Answered)
	}
	if n := e.NIC(); n.Stats.Requests != 16 || n.Stats.TxFrames != 16 {
		t.Fatalf("nic stats: %+v", n.Stats)
	}
}

// TestServeReplicatedMatchesBare is the tentpole invariant at the
// session layer: the replicated service's reply transcript and guest
// checksum are byte-identical to the bare run's, with and without a
// mid-load primary failure.
func TestServeReplicatedMatchesBare(t *testing.T) {
	bo := serveOpts(16)
	bo.Bare = true
	bare := New(bo)
	defer bare.Close()
	if err := bare.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	ref, err := bare.Result()
	if err != nil {
		t.Fatal(err)
	}

	for _, failAt := range []sim.Time{0, 2 * sim.Millisecond} {
		o := serveOpts(16)
		o.DetectTimeout = 2 * sim.Millisecond
		e := New(o)
		res, err := e.Result()
		if err == nil {
			t.Fatal("Result before completion should error")
		}
		if failAt > 0 {
			failNodeAt(t, e, 0, failAt)
		}
		if err := e.RunToCompletion(nil); err != nil {
			e.Close()
			t.Fatalf("failAt=%v: %v", failAt, err)
		}
		res, err = e.Result()
		if err != nil {
			e.Close()
			t.Fatal(err)
		}
		if res.NetReplies != ref.NetReplies {
			t.Errorf("failAt=%v: reply transcript diverged from bare (%d vs %d bytes)",
				failAt, len(res.NetReplies), len(ref.NetReplies))
		}
		if res.Guest.Checksum != ref.Guest.Checksum {
			t.Errorf("failAt=%v: checksum %#x vs bare %#x", failAt, res.Guest.Checksum, ref.Guest.Checksum)
		}
		if failAt > 0 && !res.Promoted {
			t.Errorf("failAt=%v: no promotion", failAt)
		}
		e.Close()
	}
}
