package replication

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/hypervisor"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestReceiverEquivalence delivers the same epoch to a backup framed
// three ways — as partial frames (one per interrupt, one [Tme_p], one
// [end, E]: the inline framing), as one coalesced frame, and as two
// frames inside a transmit batch — over a real link, through the real
// receiver process. Every framing must leave the same complete pending
// record behind (the backup's encoded state is byte-identical),
// acknowledge the same watermark, and produce the same delivery at the
// backup's boundary: there is one receive path.
func TestReceiverEquivalence(t *testing.T) {
	ints := []hypervisor.Interrupt{
		{Line: 3, Dev: hypervisor.NoDevice, CapturedTOD: 111},
		{Line: 5, Dev: hypervisor.NoDevice, CapturedTOD: 222},
	}
	const endSeq = 4 // the sequence number every framing's End travels under

	type outcome struct {
		state     []byte // the backup's EncodeState once the frames are filed
		acked     uint64 // the acknowledgement's sequence number
		delivered []SyncEpoch
		digest    uint64
		intsRecvd uint64
	}
	deliver := func(t *testing.T, frame func(b hypervisor.Boundary, send func(payload any, size int))) outcome {
		k := sim.NewKernel(1)
		t.Cleanup(k.Shutdown)
		cfg := platform.Config{}
		cfg.Hypervisor.EpochLength = 256
		pair := platform.NewCluster(k, cfg, 2)
		tx, rx := pair.Channel(0, 1)
		prog := asm.MustAssemble("guest.s", guestCPU(10_000))
		pair.Nodes[0].HV.Boot(prog.Origin, prog.Words, prog.Origin)
		pair.Nodes[1].HV.Boot(prog.Origin, prog.Words, prog.Origin)
		// A downstream peer switches the backup's delivery archive on:
		// that is where the boundary's delivery is observable.
		down := netsim.NewDuplex(k, netsim.Ethernet10("down"))
		bk := NewReplica(pair.Nodes[1].HV,
			[]Peer{{TX: rx, RX: tx}},
			[]Peer{{TX: down.AtoB, RX: down.BtoA}}, Config{DetectTimeout: 10 * sim.Second})

		var out outcome
		rx.OnDeliver = func(m netsim.Message) { out.acked = m.Payload.(*ack).Head }
		bk.StartReceivers(k)
		// The reference boundary: epoch 0 as the coordinator ran it.
		hv := pair.Nodes[0].HV
		hv.BeginEpoch()
		k.Start("coordinator", func(p *sim.Proc) (sim.Time, sim.StepStatus) {
			if d, st := hv.EpochStep(p); st != sim.StepDone {
				return d, st
			}
			frame(hv.EndEpoch(), tx.Send)
			return 0, sim.StepDone
		})
		k.RunUntil(50 * sim.Millisecond)
		if r := bk.pending[0]; len(bk.pending) != 1 || r == nil || len(r.ints) != len(ints) ||
			!r.hasTme || !r.end.HasEnd || r.end.Seq != endSeq {
			t.Fatalf("the frames left an incomplete record: %d pending, epoch 0 = %+v", len(bk.pending), r)
		}
		w := snapshot.NewWriter("RECVTEST")
		bk.EncodeState(w)
		out.state = w.Finish()

		k.Start("backup", bk.Run)
		k.RunUntil(sim.Second) // epoch 0 completes; epoch 1 waits for frames that never come
		if bk.completed != 1 || bk.Stats.Divergences != 0 || bk.Promoted() {
			t.Fatalf("backup completed %d epochs, %d divergences, promoted=%v",
				bk.completed, bk.Stats.Divergences, bk.Promoted())
		}
		out.delivered = bk.archive.since(0)
		out.digest = pair.Nodes[1].HV.Digest()
		out.intsRecvd = bk.Stats.IntsReceived
		return out
	}

	pool := &netsim.FramePool[epochHead, hypervisor.Interrupt]{}
	var sent []*epochFrame
	get := func(h epochHead, recs ...hypervisor.Interrupt) *epochFrame {
		f := pool.Get()
		sent = append(sent, f)
		f.Head = h
		for _, i := range recs {
			addRec(f, i)
		}
		f.Retain(1)
		return f
	}
	end := func(b hypervisor.Boundary, h epochHead) epochHead {
		h.Seq, h.HasEnd, h.Digest, h.Halted, h.Cut = endSeq, true, b.Digest, b.Halted, b.GuestInstr
		h.Released, h.HaveReleased = b.Epoch, true
		return h
	}

	framings := map[string]func(b hypervisor.Boundary, send func(any, int)){
		"partial": func(b hypervisor.Boundary, send func(any, int)) {
			for i, rec := range ints {
				f := get(epochHead{Seq: uint64(1 + i), Epoch: b.Epoch, IntIndex: uint32(i)}, rec)
				send(f, f.Size)
			}
			f := get(epochHead{Seq: 3, Epoch: b.Epoch, HasTme: true, Tme: b.TOD})
			send(f, f.Size)
			f = get(end(b, epochHead{Epoch: b.Epoch}))
			send(f, f.Size)
		},
		"coalesced": func(b hypervisor.Boundary, send func(any, int)) {
			f := get(end(b, epochHead{Epoch: b.Epoch, HasTme: true, Tme: b.TOD}), ints...)
			send(f, f.Size)
		},
		"batch": func(b hypervisor.Boundary, send func(any, int)) {
			bpool := &netsim.FramePool[struct{}, *epochFrame]{}
			batch := bpool.Get()
			batch.Recs = append(batch.Recs,
				get(epochHead{Seq: 3, Epoch: b.Epoch, HasTme: true, Tme: b.TOD}, ints...),
				get(end(b, epochHead{Epoch: b.Epoch})))
			batch.Retain(1)
			send(batch, 8)
		},
	}

	want := deliver(t, framings["partial"])
	if len(want.delivered) != 1 || len(want.delivered[0].Ints) < len(ints) {
		t.Fatalf("boundary delivered %+v, want epoch 0 with at least the %d forwarded interrupts",
			want.delivered, len(ints))
	}
	if want.acked != endSeq || want.intsRecvd != uint64(len(ints)) {
		t.Fatalf("acked %d (want %d), %d interrupts received (want %d)",
			want.acked, endSeq, want.intsRecvd, len(ints))
	}
	for _, name := range []string{"coalesced", "batch"} {
		if got := deliver(t, framings[name]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s framing:\n got %+v\nwant %+v", name, got, want)
		}
	}
	for i, f := range sent {
		if f.Refs() != 0 {
			t.Errorf("frame %d of %d still holds %d references: the receive path must release each", i, len(sent), f.Refs())
		}
	}
}
