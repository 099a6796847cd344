package harness

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/guest"
	"repro/internal/replication"
	"repro/internal/sim"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, w := range []int{0, 1, 3, 8} {
		var hits [57]atomic.Int64
		ForEachWorkers(w, len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, got)
			}
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic was swallowed")
		}
	}()
	ForEachWorkers(4, 8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

// TestParallelExperimentsDeterministic is the -parallel acceptance
// check in miniature: the same experiment fanned across 4 workers must
// produce results identical to the serial run.
func TestParallelExperimentsDeterministic(t *testing.T) {
	scale := QuickScale() // zero Workers: serial
	par := scale
	par.Workers = 4
	f2serial, endSerial := Figure2(scale)
	f2par, endPar := Figure2(par)
	if len(f2serial) != len(f2par) {
		t.Fatalf("point counts differ: %d vs %d", len(f2serial), len(f2par))
	}
	for i := range f2serial {
		a, b := f2serial[i], f2par[i]
		if a.EL != b.EL || a.Predicted != b.Predicted ||
			(math.IsNaN(a.Measured) != math.IsNaN(b.Measured)) ||
			(!math.IsNaN(a.Measured) && a.Measured != b.Measured) {
			t.Fatalf("figure2 point %d differs: serial %+v parallel %+v", i, a, b)
		}
	}
	if endSerial.Predicted != endPar.Predicted {
		t.Fatalf("figure2 endpoint differs")
	}

	campSerial := FailureCampaign(scale, guest.WorkloadCPU, 2048,
		replication.ProtocolOld, CampaignTimes(0, 100*sim.Millisecond, 3))
	par.Workers = 3
	campPar := FailureCampaign(par, guest.WorkloadCPU, 2048,
		replication.ProtocolOld, CampaignTimes(0, 100*sim.Millisecond, 3))
	if !reflect.DeepEqual(campSerial, campPar) {
		t.Fatalf("campaign differs:\nserial:   %+v\nparallel: %+v", campSerial, campPar)
	}
}
