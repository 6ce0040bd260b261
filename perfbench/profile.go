package main

// CPU attribution by layer. The traced pass runs under runtime/pprof;
// this file decodes the gzipped profile.proto it writes (only the fields
// needed: samples, locations, functions and the string table) and
// charges each sample to one bucket: walking the stack from the leaf
// outward, the first frame that is GC work, math/rand (bucket "rng"),
// encoding/json ("json"), net/http ("nethttp"), a cloudmcp package
// (bucket = the package name) or the benchmark itself ("bench") decides.
// Samples with no such frame, such as the scheduler, land in "other".

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU sampling rate of a traced pass: pprof's fixed
// 100 Hz gives a one-second pass only about a hundred samples.
const profileHz = 500

// startCPUProfile starts the CPU profiler at profileHz. pprof then tries
// to set its own 100 Hz, fails because a rate is already set, and says so
// on standard error ("cannot set cpu profile rate"); that is expected.
func startCPUProfile(w io.Writer) error {
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(w)
}

type pbLocation struct{ funcs []uint64 } // innermost first (inlining)

type pbProfile struct {
	samples   [][]uint64 // location IDs, leaf first
	counts    []int64
	locations map[uint64]pbLocation
	funcNames map[uint64]int64 // function ID -> string table index
	strings   []string
}

// pbReader walks one protobuf message.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
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
	r.err = errors.New("profile: varint overflow")
	return 0
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2). ok is false at the end or on error.
func (r *pbReader) next() (field int, wire int, v uint64, payload []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("profile: wire type %d", wire)
		return 0, 0, 0, nil, false
	}
	return field, wire, v, payload, r.err == nil
}

// uints appends a repeated integer field in either packed (wire 2) or
// unpacked (wire 0) form.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	p := pbReader{b: payload}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst, p.err
}

func parseProfile(gz []byte) (*pbProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &pbProfile{locations: make(map[uint64]pbLocation), funcNames: make(map[uint64]int64)}
	r := pbReader{b: raw}
	for {
		field, _, _, payload, ok := r.next()
		if !ok {
			break
		}
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			m := pbReader{b: payload}
			for {
				f, w, v, pl, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					locs, err = uints(locs, w, v, pl)
				case 2:
					vals, err = uints(vals, w, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			var count int64
			if len(vals) > 0 {
				count = int64(vals[0])
			}
			p.samples = append(p.samples, locs)
			p.counts = append(p.counts, count)
		case 4: // Location
			var id uint64
			var loc pbLocation
			m := pbReader{b: payload}
			for {
				f, _, v, pl, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := pbReader{b: pl}
					for {
						lf, _, lv, _, ok := l.next()
						if !ok {
							break
						}
						if lf == 1 {
							loc.funcs = append(loc.funcs, lv)
						}
					}
					if l.err != nil {
						return nil, l.err
					}
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			p.locations[id] = loc
		case 5: // Function
			var id uint64
			var name int64
			m := pbReader{b: payload}
			for {
				f, _, v, _, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			p.funcNames[id] = name
		case 6:
			p.strings = append(p.strings, string(payload))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

// gcFrames prefix the runtime functions that do garbage-collection work,
// whether on a background mark worker or as an allocation assist.
var gcFrames = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.(*gcWork)", "runtime.bgsweep",
	"runtime.sweepone", "runtime.(*sweepLocked)", "runtime.bgscavenge", "runtime.wbBuf",
}

// bucketOf names the bucket a single frame decides, or "" when the frame
// is neutral (the walk continues outward).
func bucketOf(fn string) string {
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	switch {
	case strings.HasPrefix(fn, "math/rand."):
		return "rng"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "net/http."):
		return "nethttp"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "cloudmcp/perfbench."):
		return "bench"
	case strings.HasPrefix(fn, "cloudmcp/internal/"):
		rest := fn[len("cloudmcp/internal/"):]
		if i := strings.IndexByte(rest, '.'); i > 0 {
			return rest[:i]
		}
	}
	return ""
}

// cpuShares returns each bucket's percentage of the profile's samples
// and the total sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64)
	var total int64
	for i, locs := range p.samples {
		bucket := "other"
	walk:
		for _, id := range locs {
			for _, fid := range p.locations[id].funcs {
				idx := p.funcNames[fid]
				if idx < 0 || idx >= int64(len(p.strings)) {
					continue
				}
				if b := bucketOf(p.strings[idx]); b != "" {
					bucket = b
					break walk
				}
			}
		}
		counts[bucket] += p.counts[i]
		total += p.counts[i]
	}
	shares := make(map[string]float64, len(counts))
	for b, n := range counts {
		if total > 0 {
			shares[b] = 100 * float64(n) / float64(total)
		}
	}
	return shares, total, nil
}
