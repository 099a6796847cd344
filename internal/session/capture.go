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
	"encoding/binary"
	"fmt"
	"strconv"

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

// EncodeSections appends a capture of the session to w — section
// count, then each section's name and blob, encoded in place —
// booting the session first if needed (boot is deterministic, so
// capturing an unstarted session is equivalent to capturing it at
// virtual time zero). Every layer is encoded straight from its live
// state (machine.BorrowState, Hypervisor.CaptureState): nothing runs
// between a section's capture and its encoding.
func (e *Engine) EncodeSections(w *snapshot.Writer) {
	e.capture(&capture{w: w})
}

// VerifySections compares a fresh capture of the session against a
// decoded one, section by section as each is encoded, and reports the
// first difference (nil if identical). Used by snapshot restore
// verification.
func (e *Engine) VerifySections(want []Section) error {
	c := capture{w: e.Writer(SectionMagic), want: want}
	e.capture(&c)
	e.Recycle(c.w) // nothing returned aliases it
	if c.err == nil && c.n != len(want) {
		return fmt.Errorf("capture has %d sections, snapshot has %d", c.n, len(want))
	}
	return c.err
}

// capture is one pass over the session's sections: each is written to w
// behind its name and, when verifying, compared with the decoded section
// at its position and dropped before the next is written.
type capture struct {
	w    *snapshot.Writer
	want []Section // verifying; nil when encoding
	n    int       // sections written
	name int       // where the open section's name starts
	mark int       // where its blob starts
	err  error     // verifying: the first difference
}

// begin opens a section: its name — prefix, then i in decimal unless it
// is negative, then suffix — and its blob header.
func (c *capture) begin(prefix string, i int, suffix string) {
	var buf [32]byte
	name := append(buf[:0], prefix...)
	if i >= 0 {
		name = strconv.AppendInt(name, int64(i), 10)
	}
	c.name = c.w.Len()
	c.w.Bytes(append(name, suffix...)) // the encoding of a String
	c.mark = c.w.BeginSection(SectionMagic)
}

// end closes the open section and, verifying, compares it and drops it.
func (c *capture) end() {
	data := c.w.EndSection(c.mark)
	if c.want != nil {
		if i := c.n; c.err == nil && i < len(c.want) {
			name := c.w.Since(c.name)[4 : c.mark-c.name]
			switch want := c.want[i]; {
			case want.Name != string(name):
				c.err = fmt.Errorf("section %d is %q, snapshot has %q", i, name, want.Name)
			case !bytes.Equal(want.Data, data):
				c.err = fmt.Errorf("section %q differs (%d vs %d bytes)", want.Name, len(want.Data), len(data))
			}
		}
		c.w.Truncate(c.name)
	}
	c.n++
}

// capture writes the session's sections in their fixed order, the
// section count first. The session is replicated: Save refuses a bare
// one, so the meta section's bare flag is a constant zero byte of the
// format.
func (e *Engine) capture(c *capture) {
	e.Boot()
	w := c.w
	count := w.Len()
	w.U32(0) // the section count, patched once known

	c.begin("meta", -1, "")
	w.I64(int64(e.Now()))
	w.U64(e.commits)
	w.Bool(e.finished)
	w.Bool(e.o.Bare)
	w.Int(len(e.cluster.Nodes))
	w.U64(e.diskOps)
	w.U64(e.diskUncertain)
	c.end()

	for i, node := range e.cluster.Nodes {
		c.begin("node", i, ".machine")
		ms := node.M.BorrowState()
		ms.Code(w.Codec())
		c.end()

		c.begin("node", i, ".hypervisor")
		hs := node.HV.CaptureState()
		hs.Code(w.Codec())
		c.end()

		c.begin("node", i, ".devices")
		for _, a := range node.Adapters {
			w.U64(a.StateDigest())
		}
		w.U64(node.Port.StateDigest())
		if node.NICPort != nil {
			w.U64(node.NICPort.StateDigest())
		}
		c.end()
	}

	c.begin("console", -1, "")
	w.String(e.cluster.Console.Output())
	w.U64(e.cluster.Console.StateDigest())
	c.end()

	// The shared network service: the NIC's full dynamic state (reply
	// transcript, dedup watermarks, in-progress TX assembly) plus the
	// client population's per-connection watermarks. Absent entirely on
	// sessions without a NIC, so their section lists are unchanged.
	if e.nic != nil {
		c.begin("nic", -1, "")
		w.U64(e.nic.StateDigest())
		if e.clients != nil {
			w.U64(e.clients.StateDigest())
		}
		c.end()
	}

	for i, r := range e.reps {
		if i == 0 {
			c.begin("replication.primary", -1, "") // nodeName's names
		} else {
			c.begin("replication.backup", i, "")
		}
		r.EncodeState(w)
		c.end()
	}

	for i, d := range e.cluster.Disks {
		c.begin("disk", i, "")
		w.U64(d.StateDigest())
		c.end()
	}

	c.begin("links", -1, "")
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
	// State-transfer links are session state too: an image in flight
	// (or already delivered) must verify like any channel. Their sources
	// are node indexes, so counting through the replicas visits them in
	// ascending order.
	for src := range e.reps {
		for i, l := range e.xferLinks[src] {
			w.Int(src)
			w.Int(i)
			w.U64(l.StateDigest())
		}
	}
	c.end()

	binary.LittleEndian.PutUint32(w.Since(count), uint32(c.n))
}
