package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie above the reported tail
// percentile: the tail is the highest percentile that still has this many
// samples beyond it, so it is never read off a handful of outliers.
const minBeyond = 10

// tail returns the highest nearest-rank percentile of samples with at least
// minBeyond samples above it, and that percentile in (0, 100). ok is false
// when there are too few samples for any such percentile.
func tail(samples []float64) (value, pct float64, ok bool) {
	n := len(samples)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := n - minBeyond - 1
	return s[k], 100 * float64(k+1) / float64(n), true
}

// median returns the middle of samples (the mean of the two middle values
// for an even count); NaN for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runtimeSample reads the process-wide counters the per-layer report
// derives allocation and GC cost from.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
}

func readRuntime() runtimeSample {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(ms)
	return runtimeSample{allocBytes: float64(ms[0].Value.Uint64()), gcCPU: ms[1].Value.Float64()}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{allocBytes: a.allocBytes - b.allocBytes, gcCPU: a.gcCPU - b.gcCPU}
}

// cpuSeconds is the user and system CPU time the process has used. Row
// Seconds are wall times, which a descheduled job keeps counting, so idle
// capacity is read from the CPU the process actually got.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() float64 { return readRuntime().allocBytes }

// heapSampler polls the live heap — the bytes the last garbage collection
// found reachable — and keeps the maximum: the largest Go heap the process
// held while it ran. Unlike the bytes currently in heap objects, the live
// heap does not count garbage awaiting collection, so it does not depend on
// where in the GC cycle a sample lands.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	h.mu.Lock()
	h.peak = max(h.peak, ms[0].Value.Uint64())
	h.mu.Unlock()
}

// take returns the peak in MiB since the previous take and starts a new
// interval.
func (h *heapSampler) take() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := float64(h.peak) / (1 << 20)
	h.peak = 0
	return p
}

// Stop ends sampling.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.wg.Wait()
}

// latencies collects per-unit round-trip times in milliseconds.
type latencies struct {
	mu sync.Mutex
	ms []float64
	// window, when set, replaces tailWindow: a workload whose pass yields
	// the same units in the same order sets it to the units per pass, so
	// every window holds the same units and the tail is read per pass.
	window int
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.mu.Unlock()
}

// tailWindow is the window size for long runs: with at least two full
// windows, the tail is the median of the windows' tails. A single highest
// percentile read off a whole run rests on its ten largest samples, which
// a GC pause or a neighbour's burst can move; the median over windows does
// not move with one bad window.
const tailWindow = 1000

// summary returns the median, the tail and a description of the tail
// percentile with its sample count.
func (l *latencies) summary() (p50, tailMs float64, desc string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.ms)
	size := tailWindow
	if l.window > minBeyond {
		size = l.window
	}
	if n/size < 2 {
		v, pct, ok := tail(l.ms)
		if !ok {
			return 0, 0, "", fmt.Errorf("only %d latency samples, need more than %d for a tail", n, minBeyond)
		}
		return median(l.ms), v, fmt.Sprintf("p%.2f of %d samples", pct, n), nil
	}
	var tails []float64
	var pct float64
	for w := 0; w+size <= n; w += size {
		v, p, _ := tail(l.ms[w : w+size])
		tails = append(tails, v)
		pct = p
	}
	return median(l.ms), median(tails), fmt.Sprintf("the median over %d windows of %d samples of p%.2f (%d samples in all)", len(tails), size, pct, n), nil
}
