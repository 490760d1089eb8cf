package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runtimeSample holds the cumulative Go runtime counters a phase takes
// the difference of.
type runtimeSample struct {
	allocB, allocObjs, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	f := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocB: f(0), allocObjs: f(1), gcCPU: f(2), totalCPU: f(3)}
}

// heapAllocBytes reads the cumulative heap allocation counter.
func heapAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch records the live heap after every GC cycle through a
// self-re-arming finalizer: it costs nothing between collections and
// never stops the world, unlike polling runtime.ReadMemStats.
type heapWatch struct {
	mu      sync.Mutex
	samples []heapSample
	done    atomic.Bool
}

type heapSample struct {
	at   time.Time
	live float64 // bytes
}

// gcSentinel carries a pointer so it never lands in the tiny
// allocator, whose blocks may never be finalized.
type gcSentinel struct {
	w *heapWatch
	_ [16]byte
}

func startHeapWatch() *heapWatch {
	w := &heapWatch{}
	w.sample()
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	s := &gcSentinel{w: w}
	runtime.SetFinalizer(s, func(s *gcSentinel) {
		if s.w.done.Load() {
			return
		}
		s.w.sample()
		s.w.arm()
	})
}

func (w *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	w.mu.Lock()
	w.samples = append(w.samples, heapSample{at: time.Now(), live: float64(s[0].Value.Uint64())})
	w.mu.Unlock()
}

// stop ends the watch and returns its samples.
func (w *heapWatch) stop() []heapSample {
	w.done.Store(true)
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]heapSample(nil), w.samples...)
}
