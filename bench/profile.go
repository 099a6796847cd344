package main

// A minimal reader for the gzip'd profile.proto that runtime/pprof
// writes — only the fields needed to name each sample's stack — and the
// bucketing of samples into layers. go.mod may not grow a dependency on
// github.com/google/pprof for this.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the decoded subset: per sample its count and its stack
// as function names, leaf first.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	count int64
	stack []string
}

// protoReader walks one protobuf message.
type protoReader struct {
	b   []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("profile: varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, and either its varint value
// or its bytes. Fixed-width fields are skipped (profile.proto has none
// we read).
func (r *protoReader) next() (field int, v uint64, data []byte, ok bool) {
	for r.err == nil && len(r.b) > 0 {
		key := r.varint()
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			return field, r.varint(), nil, r.err == nil
		case 2:
			n := r.varint()
			if r.err != nil {
				return 0, 0, nil, false
			}
			if n > uint64(len(r.b)) {
				r.err = io.ErrUnexpectedEOF
				return 0, 0, nil, false
			}
			data, r.b = r.b[:n], r.b[n:]
			return field, 0, data, true
		case 1, 5:
			n := 8
			if wire == 5 {
				n = 4
			}
			if len(r.b) < n {
				r.err = io.ErrUnexpectedEOF
				return 0, 0, nil, false
			}
			r.b = r.b[n:]
		default:
			r.err = fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return 0, 0, nil, false
}

// repeatedVarint appends a repeated integer field, packed or not.
func repeatedVarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{b: data}
	for r.err == nil && len(r.b) > 0 {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

// parseProfile decodes a gzip'd profile.proto.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		strs      []string
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		top       = protoReader{b: raw}
		subErr    error
		keepFirst = func(err error) {
			if subErr == nil {
				subErr = err
			}
		}
	)
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // Sample
			var s rawSample
			var values []uint64
			r := protoReader{b: data}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				var err error
				switch f {
				case 1:
					s.locs, err = repeatedVarint(s.locs, v, d)
				case 2:
					values, err = repeatedVarint(values, v, d)
				}
				keepFirst(err)
			}
			keepFirst(r.err)
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			r := protoReader{b: data}
			for {
				f, v, d, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					lr := protoReader{b: d}
					for {
						lf, lv, _, ok := lr.next()
						if !ok {
							break
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
					keepFirst(lr.err)
				}
			}
			keepFirst(r.err)
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			r := protoReader{b: data}
			for {
				f, v, _, ok := r.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			keepFirst(r.err)
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}
	if subErr != nil {
		return nil, fmt.Errorf("profile: %w", subErr)
	}

	p := &cpuProfile{}
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) && strs[i] != "" {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// hostLayers are the buckets of the host self-time partition, in report
// order. A layer is a package, or a few that form one layer.
var hostLayers = []string{
	"sim", "machine", "hypervisor", "replication", "netsim", "device", "clientsim", "snapshot",
	"session", "cluster", "chaos", "fleet", "boot", "bench", "runtime_bg",
}

// packageLayer folds packages into layers; a package not listed is its
// own layer if hostLayers names it, else part of "cluster" (the root
// package's side: harness, perfmodel, core — none of which the
// benchmark calls).
var packageLayer = map[string]string{
	"scsi": "device", "console": "device", "nic": "device", "platform": "device",
	"sched": "fleet",
	"asm":   "boot", "isa": "boot", "guest": "boot",
}

// layerOf names the layer a function belongs to, "" for a function
// outside the repository (runtime, standard library).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/bench."):
		return "bench"
	case strings.HasPrefix(fn, "repro."):
		return "cluster"
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		for _, l := range hostLayers {
			if l == pkg {
				return l
			}
		}
		return "cluster"
	}
	return ""
}

// Leaf functions that are goroutine handoff (scheduler, park, ready,
// futex, channel operations) and leaf functions that are allocation or
// garbage collection: two cuts that overlap the layer partition.
var (
	handoffLeaves = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.mcall", "runtime.gosched", "runtime.goschedImpl", "runtime.execute", "runtime.gogo", "runtime.runqget", "runtime.runqput",
		"runtime.runqgrab", "runtime.stealWork", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.resetspinning",
		"runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.notetsleep", "runtime.semasleep", "runtime.semawakeup",
		"runtime.lock", "runtime.unlock", "runtime.chansend", "runtime.chanrecv", "runtime.send", "runtime.recv", "runtime.selectgo",
		"runtime.usleep", "runtime.osyield", "runtime.procyield", "runtime.casgstatus", "runtime.pidleget", "runtime.pidleput",
		"runtime.checkTimers", "runtime.dropg", "runtime.acquireSudog", "runtime.releaseSudog", "runtime.goexit0", "runtime.newproc",
		"runtime.mPark", "runtime.schedEnabled", "runtime.globrunqget", "runtime.netpoll", "runtime.nanotime",
		"sync.(*Cond)", "sync.(*Mutex)", "sync.runtime_", "internal/sync.",
	}
	gcLeaves = []string{
		"runtime.mallocgc", "runtime.malloc", "runtime.newobject", "runtime.growslice", "runtime.makeslice", "runtime.gcBgMarkWorker",
		"runtime.gcDrain", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject", "runtime.markBits",
		"runtime.gcAssist", "runtime.gcWriteBarrier", "runtime.wbBuf", "runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)",
		"runtime.(*mspan)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*gcWork)", "runtime.(*gcBits",
		"runtime.heapBits", "runtime.heapSetType", "runtime.memclrNoHeapPointers", "runtime.nextFreeFast", "runtime.gcStart",
		"runtime.gcMark", "runtime.findObject", "runtime.spanOf", "runtime.bgscavenge", "runtime.(*scavenge", "runtime.deductAssistCredit",
		"runtime.(*pageAlloc)", "runtime.typePointers", "runtime.(*limiterEvent)", "runtime.(*gcControllerState)", "runtime.tryDeferToSpanScan",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// profileShares is a bucketed CPU profile.
type profileShares struct {
	pct      map[string]float64 // layer -> share of samples; sums to 100
	handoff  float64            // share whose leaf is goroutine handoff
	gc       float64            // share whose leaf is allocation or GC
	samples  int64              // samples bucketed
	resolved int64              // of which the stack had at least one name
}

// bucketProfile attributes each sample to the nearest repository frame
// walking up from the leaf; samples with no such frame are the
// runtime's own background (GC workers, idle Ps). Samples taken inside
// the calibration kernel are not the system's and are dropped.
func bucketProfile(gz []byte) (profileShares, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return profileShares{}, err
	}
	count := map[string]int64{}
	var out profileShares
	var handoff, gc int64
samples:
	for _, s := range p.samples {
		layer := ""
		for _, fn := range s.stack {
			if fn == "main.calibKernel" || fn == "repro/bench.calibKernel" {
				continue samples
			}
			if layer == "" {
				layer = layerOf(fn)
			}
		}
		if layer == "" {
			layer = "runtime_bg"
		}
		count[layer] += s.count
		out.samples += s.count
		if len(s.stack) > 0 {
			out.resolved += s.count
			if hasAnyPrefix(s.stack[0], handoffLeaves) {
				handoff += s.count
			} else if hasAnyPrefix(s.stack[0], gcLeaves) {
				gc += s.count
			}
		}
	}
	out.pct = map[string]float64{}
	for _, l := range hostLayers {
		out.pct[l] = 0
	}
	if out.samples > 0 {
		for l, n := range count {
			out.pct[l] = 100 * float64(n) / float64(out.samples)
		}
		out.handoff = 100 * float64(handoff) / float64(out.samples)
		out.gc = 100 * float64(gc) / float64(out.samples)
	}
	return out, nil
}
