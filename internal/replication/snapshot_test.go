package replication

import (
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/hypervisor"
	"repro/internal/snapshot"
)

// mutator changes one encoded field of an engine.
type mutator[E any] struct {
	field  string
	mutate func(E)
}

// TestCoordinatorBackupStateCodec pins what Restore's verification
// relies on. Nothing decodes the replication sections: a restored
// session is checked by comparing its freshly encoded sections to the
// saved bytes, which is sound exactly when engines in equal states
// encode equal and engines that differ in any encoded field encode
// differently. One mutator per encoded field, each applied to a fresh
// engine, must move the bytes.
func TestCoordinatorBackupStateCodec(t *testing.T) {
	interrupt := hypervisor.Interrupt{Line: 1, Completion: device.Completion{Data: []byte{1}}}
	drive := func(c *coordinator) {
		c.s.seq = 9
		c.s.peers[0].acked, c.s.peers[1].acked = 9, 7
		c.intIndex = 3
		c.pend = []pendingEpoch{{epoch: 4, seq: 8}}
		c.released, c.haveReleased = 3, true
		c.archive.record(SyncEpoch{Epoch: 4, Tme: 100, Digest: 0xAB, Ints: []hypervisor.Interrupt{interrupt}})
	}
	primary := func() *Replica {
		pr := NewReplica(nil, nil, []Peer{{}, {}}, Config{})
		drive(pr.coord)
		return pr
	}
	// A promoted backup with one epoch's frame parts still pending.
	backup := func() *Replica {
		bk := NewReplica(nil, []Peer{{}, {}}, []Peer{{}, {}}, Config{})
		bk.completed, bk.BootTOD = 5, 50
		r := bk.rec(5)
		r.ints[0] = interrupt
		r.tme, r.hasTme = 123, true
		r.end = epochHead{HasEnd: true, Seq: 7, Digest: 0xCD}
		bk.coord = bk.newCoordinator()
		drive(bk.coord)
		return bk
	}

	archived := func(c *coordinator, change func(*SyncEpoch)) {
		change(&c.archive.slot(4).SyncEpoch)
	}
	coordinatorFields := []mutator[*coordinator]{
		{"sender seq", func(c *coordinator) { c.s.seq++ }},
		{"peer 0 ack watermark", func(c *coordinator) { c.s.peers[0].acked++ }},
		{"peer 1 ack watermark", func(c *coordinator) { c.s.peers[1].acked++ }},
		{"a peer more", func(c *coordinator) { c.attachPeer(Peer{}) }},
		{"intIndex", func(c *coordinator) { c.intIndex++ }},
		{"pend epoch", func(c *coordinator) { c.pend[0].epoch++ }},
		{"pend seq", func(c *coordinator) { c.pend[0].seq++ }},
		{"a pend entry more", func(c *coordinator) { c.pend = append(c.pend, pendingEpoch{}) }},
		{"released", func(c *coordinator) { c.released++ }},
		{"haveReleased", func(c *coordinator) { c.haveReleased = false }},
		{"archive Epoch", func(c *coordinator) { archived(c, func(e *SyncEpoch) { e.Epoch++ }) }},
		{"archive Tme", func(c *coordinator) { archived(c, func(e *SyncEpoch) { e.Tme++ }) }},
		{"archive Digest", func(c *coordinator) { archived(c, func(e *SyncEpoch) { e.Digest++ }) }},
		{"archive Halted", func(c *coordinator) { archived(c, func(e *SyncEpoch) { e.Halted = true }) }},
		{"archive Ints", func(c *coordinator) { archived(c, func(e *SyncEpoch) { e.Ints = nil }) }},
		{"an archive entry more", func(c *coordinator) { c.archive.record(SyncEpoch{Epoch: 5}) }},
	}
	// Every Stats field is encoded: the list comes from the type, so a
	// counter added without its encoder line fails here.
	statsType := reflect.TypeOf(Stats{})
	for i := 0; i < statsType.NumField(); i++ {
		coordinatorFields = append(coordinatorFields, mutator[*coordinator]{
			"Stats." + statsType.Field(i).Name,
			func(c *coordinator) {
				switch f := reflect.ValueOf(c.stats).Elem().Field(i); f.Kind() {
				case reflect.Bool:
					f.SetBool(!f.Bool())
				case reflect.Int64:
					f.SetInt(f.Int() + 1)
				default:
					f.SetUint(f.Uint() + 1)
				}
			},
		})
	}
	backupFields := []mutator[*Replica]{
		{"index", func(bk *Replica) { bk.index++ }},
		{"completed", func(bk *Replica) { bk.completed++ }},
		{"promoted", func(bk *Replica) { bk.promoted = true }},
		{"failed", func(bk *Replica) { bk.failed = true }},
		{"withdrawn", func(bk *Replica) { bk.withdrawn = true }},
		{"done", func(bk *Replica) { bk.done = true }},
		{"halted", func(bk *Replica) { bk.halted = true }},
		{"BootTOD", func(bk *Replica) { bk.BootTOD++ }},
		{"pending epoch", func(bk *Replica) { bk.pending[6] = bk.pending[5]; delete(bk.pending, 5) }},
		{"a pending record more", func(bk *Replica) { bk.rec(6) }},
		{"pending interrupt index", func(bk *Replica) { r := bk.pending[5]; r.ints[1] = r.ints[0]; delete(r.ints, 0) }},
		{"a pending interrupt more", func(bk *Replica) { bk.pending[5].ints[1] = interrupt }},
		{"pending hasTme", func(bk *Replica) { bk.pending[5].hasTme = false }},
		{"pending tme", func(bk *Replica) { bk.pending[5].tme++ }},
		{"pending End", func(bk *Replica) { bk.pending[5].end.HasEnd = false }},
		{"pending End.Seq", func(bk *Replica) { bk.pending[5].end.Seq++ }},
		{"pending End.Digest", func(bk *Replica) { bk.pending[5].end.Digest++ }},
		{"pending End.Halted", func(bk *Replica) { bk.pending[5].end.Halted = true }},
		{"pending End.Cut", func(bk *Replica) { bk.pending[5].end.Cut++ }},
		{"pending End.Released", func(bk *Replica) { bk.pending[5].end.Released++ }},
		{"pending End.HaveReleased", func(bk *Replica) { bk.pending[5].end.HaveReleased = true }},
		{"verbatim", func(bk *Replica) { bk.pending[5].verbatim = &SyncEpoch{} }},
		{"the promoted coordinator", func(bk *Replica) { bk.coord = nil }},
	}
	for field, change := range map[string]func(*hypervisor.Interrupt){
		"Line":        func(i *hypervisor.Interrupt) { i.Line++ },
		"Timer":       func(i *hypervisor.Interrupt) { i.Timer = true },
		"Dev":         func(i *hypervisor.Interrupt) { i.Dev++ },
		"Status":      func(i *hypervisor.Interrupt) { i.Status++ },
		"Addr":        func(i *hypervisor.Interrupt) { i.Addr++ },
		"Data":        func(i *hypervisor.Interrupt) { i.Data = []byte{2} },
		"Seq":         func(i *hypervisor.Interrupt) { i.Seq++ },
		"CapturedTOD": func(i *hypervisor.Interrupt) { i.CapturedTOD++ },
	} {
		backupFields = append(backupFields, mutator[*Replica]{"pending interrupt " + field, func(bk *Replica) {
			i := bk.pending[5].ints[0]
			change(&i)
			bk.pending[5].ints[0] = i
		}})
	}
	for _, m := range coordinatorFields {
		backupFields = append(backupFields, mutator[*Replica]{
			"coordinator " + m.field, func(bk *Replica) { m.mutate(bk.coord) }})
	}

	encode := func(state func(*snapshot.Writer)) string {
		w := snapshot.NewWriter("TESTMAG1")
		state(w)
		return string(w.Finish())
	}
	if encode(primary().EncodeState) != encode(primary().EncodeState) {
		t.Error("identically driven primaries encode differently")
	}
	if encode(backup().EncodeState) != encode(backup().EncodeState) {
		t.Error("identically driven backups encode differently")
	}
	for _, m := range coordinatorFields {
		pr := primary()
		m.mutate(pr.coord)
		if encode(pr.EncodeState) == encode(primary().EncodeState) {
			t.Errorf("primary: changing %s leaves the encoding unchanged", m.field)
		}
	}
	for _, m := range backupFields {
		bk := backup()
		m.mutate(bk)
		if encode(bk.EncodeState) == encode(backup().EncodeState) {
			t.Errorf("backup: changing %s leaves the encoding unchanged", m.field)
		}
	}
	t.Logf("%d coordinator and %d backup single-field changes, each visible in the bytes",
		len(coordinatorFields), len(backupFields))
}
