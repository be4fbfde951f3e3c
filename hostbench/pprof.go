package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the runtime/pprof CPU profile (gzipped
// profile.proto), just enough to group samples by the function that was
// running. It keeps the benchmark free of dependencies and of a second
// process.

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, leaf first
	functions map[uint64]int64    // function id -> name's string index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited bytes
}

var errTruncated = errors.New("pprof: truncated message")

func protoFields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values, packed or not.
func varints(f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = protoFields(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s profSample
			var values []uint64
			err := protoFields(f.b, func(g protoField) error {
				vs, err := varints(g)
				switch {
				case err != nil:
					return err
				case g.num == 1: // location_id
					s.locs = append(s.locs, vs...)
				case g.num == 2: // value: [sample count, cpu ns]
					values = append(values, vs...)
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line: inlined frames, leaf first
					return protoFields(g.b, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(f.b))
		}
		return nil
	})
	return p, err
}

// frames returns the sample's function names, leaf first.
func (p *profile) frames(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if i := p.functions[fn]; i >= 0 && i < int64(len(p.strings)) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// Frames that mark a sample as garbage-collector work wherever they sit on
// the stack: background and assist marking, sweeping, scavenging and the
// write barrier's buffer flushes.
var gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.(*sweepLocked).sweep", "runtime.deductSweepCredit",
	"runtime.wbBufFlush", "runtime.markroot", "runtime.scanobject"}

// Frames that mark a runtime sample as goroutine handoff: channel
// rendezvous, parking and readying, the scheduler loop and the futex and
// lock traffic under it. This is what one sim.Proc switch costs.
var schedFrames = []string{"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
	"runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.futex",
	"runtime.notesleep", "runtime.notewakeup", "runtime.wakep", "runtime.startm",
	"runtime.stopm", "runtime.goexit0", "runtime.execute", "runtime.gogo",
	"runtime.lock2", "runtime.unlock2", "runtime.runqget", "runtime.runqput",
	"runtime.casgstatus", "runtime.newproc", "runtime.sysmon"}

func anyFrame(frames, marks []string) bool {
	for _, f := range frames {
		for _, m := range marks {
			if strings.HasPrefix(f, m) {
				return true
			}
		}
	}
	return false
}

// funcPackage returns the import path of a symbol name such as
// "startvoyager/internal/sim.(*Engine).Step".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/') + 1
	if dot := strings.IndexByte(name[slash:], '.'); dot >= 0 {
		return name[:slash+dot]
	}
	return name
}

// moduleLayers names the layer each of the repository's packages belongs
// to; niu's sub-packages (biu, ctrl, sram, txrx) fold into niu.
var moduleLayers = map[string]string{
	"sim": "sim", "core": "core", "mpi": "mpi", "bus": "bus", "cache": "cache",
	"mem": "mem", "niu": "niu", "firmware": "firmware", "arctic": "arctic",
	"fault": "fault", "cluster": "cluster", "node": "cluster",
	"stats": "instr", "trace": "instr", "prof": "instr",
}

const unattributed = "unattributed"

// layerOf classifies one sample. GC and goroutine handoff are recognised by
// the stack; everything else goes to the layer of the leaf frame, where a
// runtime or standard-library leaf (allocation, copying, map access,
// formatting) is charged to the nearest caller in the repository's modules
// or the benchmark's own code ("app"). A sample with no such frame is
// unattributed.
func layerOf(frames []string) string {
	if anyFrame(frames, gcFrames) {
		return "runtime.gc"
	}
	if len(frames) > 0 && funcPackage(frames[0]) == "runtime" && anyFrame(frames, schedFrames) {
		return "runtime.sched"
	}
	for _, f := range frames {
		pkg := funcPackage(f)
		if pkg == "main" {
			return "app"
		}
		if mod, ok := strings.CutPrefix(pkg, "startvoyager/internal/"); ok {
			mod, _, _ = strings.Cut(mod, "/")
			if l, ok := moduleLayers[mod]; ok {
				return l
			}
			return unattributed
		}
	}
	return unattributed
}

// attribute adds a gzipped CPU profile's sample counts, grouped by
// layerOf, to into.
func attribute(gz []byte, into map[string]int64) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		into[layerOf(p.frames(s))] += s.count
	}
	return nil
}
