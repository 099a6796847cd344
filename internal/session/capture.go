package session

// Session capture: a labeled, deterministic encoding of everything a
// resident simulation's future depends on — per-node machine and
// hypervisor state, per-engine replication state, and digests of the
// environment (disk, links, consoles). A session checkpoint embeds the
// capture; restore replays the run deterministically and then compares
// a fresh capture against the embedded one SECTION BY SECTION, so any
// divergence (a format change that slipped past the version bump, a
// nondeterminism bug, a tampered file) is caught and named instead of
// silently resuming a different simulation.
//
// The section list is one of the two composite formats session owns (the
// AddBackup transfer in addbackup.go is the other). What goes INSIDE a
// machine, hypervisor or replication section is that layer's own format
// (its snapshot.go): this file only orders and labels them.

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/snapshot"
)

// SectionMagic opens each capture section blob.
const SectionMagic = "HFTSECT1"

// Section is one labeled piece of a decoded session capture. Data is
// the section's blob and may alias the snapshot it was read from.
type Section struct {
	Name string
	Data []byte
}

// section is one piece of a capture still to be encoded.
type section struct {
	name string
	fill func(w *snapshot.Writer)
}

// EncodeSections appends a capture of the session to w — section
// count, then each section's name and blob, encoded in place —
// booting the session first if needed (boot is deterministic, so
// capturing an unstarted session is equivalent to capturing it at
// virtual time zero). Machine RAM is encoded straight from the live
// page frames (machine.BorrowState): nothing runs between a section's
// capture and its encoding.
func (e *Engine) EncodeSections(w *snapshot.Writer) {
	secs := e.sections()
	w.U32(uint32(len(secs)))
	for _, s := range secs {
		w.String(s.name)
		s.encode(w)
	}
}

// encode appends the section's blob, length-prefixed, and returns it.
func (s section) encode(w *snapshot.Writer) []byte {
	mark := w.BeginSection(SectionMagic)
	s.fill(w)
	return w.EndSection(mark)
}

// VerifySections compares a fresh capture of the session against a
// decoded one, section by section as each is encoded, and reports the
// first difference (nil if identical). Used by snapshot restore
// verification.
func (e *Engine) VerifySections(want []Section) error {
	got := e.sections()
	w := e.Writer(SectionMagic)
	defer e.Recycle(w)
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i].Name != got[i].name {
			return fmt.Errorf("section %d is %q, snapshot has %q", i, got[i].name, want[i].Name)
		}
		if data := got[i].encode(w); !bytes.Equal(want[i].Data, data) {
			return fmt.Errorf("section %q differs (%d vs %d bytes)", want[i].Name, len(want[i].Data), len(data))
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("capture has %d sections, snapshot has %d", len(got), len(want))
	}
	return nil
}

// sections lists the capture's sections in their fixed order. The
// session is replicated: Save refuses a bare one, so the meta section's
// bare flag is a constant zero byte of the format.
func (e *Engine) sections() []section {
	e.Boot()
	var out []section
	add := func(name string, fill func(w *snapshot.Writer)) {
		out = append(out, section{name, fill})
	}

	add("meta", func(w *snapshot.Writer) {
		w.I64(int64(e.Now()))
		w.U64(e.commits)
		w.Bool(e.finished)
		w.Bool(e.o.Bare)
		w.Int(len(e.cluster.Nodes))
		w.U64(e.diskOps)
		w.U64(e.diskUncertain)
	})

	for i, node := range e.cluster.Nodes {
		add(fmt.Sprintf("node%d.machine", i), func(w *snapshot.Writer) {
			s := node.M.BorrowState()
			s.Code(w.Codec())
		})
		add(fmt.Sprintf("node%d.hypervisor", i), func(w *snapshot.Writer) {
			s := node.HV.CaptureState()
			s.Code(w.Codec())
		})
		add(fmt.Sprintf("node%d.devices", i), func(w *snapshot.Writer) {
			for _, a := range node.Adapters {
				w.U64(a.StateDigest())
			}
			w.U64(node.Port.StateDigest())
			if node.NICPort != nil {
				w.U64(node.NICPort.StateDigest())
			}
		})
	}
	add("console", func(w *snapshot.Writer) {
		w.String(e.cluster.Console.Output())
		w.U64(e.cluster.Console.StateDigest())
	})
	// The shared network service: the NIC's full dynamic state (reply
	// transcript, dedup watermarks, in-progress TX assembly) plus the
	// client population's per-connection watermarks. Absent entirely on
	// sessions without a NIC, so their section lists are unchanged.
	if e.nic != nil {
		add("nic", func(w *snapshot.Writer) {
			w.U64(e.nic.StateDigest())
			if e.clients != nil {
				w.U64(e.clients.StateDigest())
			}
		})
	}
	for i, r := range e.reps {
		add("replication."+nodeName(i), r.EncodeState)
	}
	for i, d := range e.cluster.Disks {
		add(fmt.Sprintf("disk%d", i), func(w *snapshot.Writer) { w.U64(d.StateDigest()) })
	}
	add("links", func(w *snapshot.Writer) {
		for i := range e.cluster.Links {
			for j := range e.cluster.Links[i] {
				if d := e.cluster.Links[i][j]; d != nil {
					w.Int(i)
					w.Int(j)
					w.U64(d.AtoB.StateDigest())
					w.U64(d.BtoA.StateDigest())
				}
			}
		}
		// State-transfer links are session state too: an image in
		// flight (or already delivered) must verify like any channel.
		srcs := make([]int, 0, len(e.xferLinks))
		for src := range e.xferLinks {
			srcs = append(srcs, src)
		}
		sort.Ints(srcs)
		for _, src := range srcs {
			for i, l := range e.xferLinks[src] {
				w.Int(src)
				w.Int(i)
				w.U64(l.StateDigest())
			}
		}
	})
	return out
}
