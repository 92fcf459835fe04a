package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// point is the host-side state read at a window boundary.
type point struct {
	wall    time.Time
	cpu     time.Duration // process user+system CPU, every thread
	mallocs uint64        // heap objects allocated so far
	bytes   uint64        // heap bytes allocated so far

	// Runtime CPU classes (estimates the runtime refreshes at each GC)
	// and GC progress, from runtime/metrics.
	userCPU, gcCPU, idleCPU, totalCPU float64 // seconds
	gcCycles                          uint64
	heapObjects                       uint64 // bytes in heap objects now
}

var runtimeSamples = []string{
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
}

func readPoint() point {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return point{
		wall:        time.Now(),
		cpu:         time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:     ms.Mallocs,
		bytes:       ms.TotalAlloc,
		userCPU:     s[0].Value.Float64(),
		gcCPU:       s[1].Value.Float64(),
		idleCPU:     s[2].Value.Float64(),
		totalCPU:    s[3].Value.Float64(),
		gcCycles:    s[4].Value.Uint64(),
		heapObjects: s[5].Value.Uint64(),
	}
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
