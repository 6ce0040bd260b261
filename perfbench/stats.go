package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0..100) of xs; 0
// when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Runtime counters read through runtime/metrics, which (unlike
// runtime.ReadMemStats) does not stop the world.
const (
	mHeapLive   = "/gc/heap/live:bytes"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
)

// allocs is the process's cumulative heap allocation count and volume.
type allocs struct{ objs, bytes uint64 }

func readAllocs() allocs {
	s := []metrics.Sample{{Name: mAllocObjs}, {Name: mAllocBytes}}
	metrics.Read(s)
	return allocs{objs: s[0].Value.Uint64(), bytes: s[1].Value.Uint64()}
}

// liveHeapMB runs a full GC and returns the live heap in MB: what the
// program holds, independent of where a GC cycle happened to be.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
