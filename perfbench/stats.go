package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// benchBytes is the heap the benchmark itself holds in sample buffers; the
// heap watcher subtracts it so heap_mb does not grow with throughput.
var benchBytes atomic.Int64

// chunkLen is the number of records per buffer chunk.
const chunkLen = 1 << 16

// chunked is an append-only record buffer for the measured phase. Chunks
// never move once allocated, so adding a record is a store and, once per
// chunk, an allocation that benchBytes accounts for.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

func (c *chunked[T]) add(v T) {
	i := c.n % chunkLen
	if i == 0 {
		benchBytes.Add(int64(unsafe.Sizeof(v)) * chunkLen)
		c.chunks = append(c.chunks, make([]T, chunkLen))
	}
	c.chunks[len(c.chunks)-1][i] = v
	c.n++
}

// drain returns every record in order and releases the chunks.
func (c *chunked[T]) drain() []T {
	out := make([]T, 0, c.n)
	for i, ch := range c.chunks {
		if i == len(c.chunks)-1 {
			ch = ch[:c.n-i*chunkLen]
		}
		out = append(out, ch...)
	}
	var v T
	benchBytes.Add(-int64(unsafe.Sizeof(v)) * chunkLen * int64(len(c.chunks)))
	c.chunks, c.n = nil, 0
	return out
}

// samples holds raw per-operation timings.
type samples struct{ chunked[time.Duration] }

// sorted returns every sample in ascending order and releases the buffer.
func (s *samples) sorted() []time.Duration {
	out := s.drain()
	slices.Sort(out)
	return out
}

// percentileUs is the exact nearest-rank percentile of sorted raw samples,
// in microseconds.
func percentileUs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

// median returns the median of xs (the mean of the middle two for even
// lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// latencyMetrics sets p50_us, p99_us and ops_per_s from one measured phase
// and records the sample count as a property.
func latencyMetrics(r *report, s *samples, ops int, elapsed time.Duration, unit string) {
	sorted := s.sorted()
	r.set("p50_us", percentileUs(sorted, 0.50))
	r.set("p99_us", percentileUs(sorted, 0.99))
	r.set("ops_per_s", float64(ops)/elapsed.Seconds())
	r.prop("samples %d %s (p99 has %d beyond it)", len(sorted), unit, len(sorted)-int(math.Ceil(0.99*float64(len(sorted)))))
}

// heapWatch tracks the live heap of a measured phase, net of the
// benchmark's own sample buffers. Every 10ms, and after forced collections
// where the phase begins and ends, it reads the live heap the garbage
// collector last marked; the result is the mean of these readings, a time
// average. Their maximum is not used: which collection lands while a heavy
// query's join is in flight, and whether two such queries overlap, varies
// from run to run, so a peak over one run is an extreme value that does not
// repeat, while the time average over hundreds of readings does.
type heapWatch struct {
	mu     sync.Mutex
	sum    float64
	n      int
	sample []metrics.Sample
	done   chan struct{}
	wg     sync.WaitGroup
}

// watchHeap starts watching at the beginning of a measured phase, after
// set-up: the transient heap of generating inputs does not count.
func watchHeap() *heapWatch {
	h := &heapWatch{
		sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
		done:   make(chan struct{}),
	}
	// Two collections: the first moves sync.Pool contents left by set-up
	// into the pools' victim caches, the second drops them.
	runtime.GC()
	runtime.GC()
	h.read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapWatch) read() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.sample)
	if h.sample[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.sum += float64(h.sample[0].Value.Uint64()) - float64(benchBytes.Load())
	h.n++
}

// meanMB ends the measured phase: it stops the sampling goroutine, forces
// a last collection and returns the mean of the readings in MiB.
func (h *heapWatch) meanMB() float64 {
	close(h.done)
	h.wg.Wait()
	runtime.GC()
	h.read()
	return h.sum / float64(max(1, h.n)) / (1 << 20)
}

// timeSetup runs setup reps times, reports the median duration as
// setup_s, and returns the state of the last run. Earlier states are
// released (when release is non-nil) and dropped, so only one set-up is
// live while measuring.
func timeSetup[T any](r *report, reps int, setup func() (T, error), release func(T)) (T, error) {
	var st T
	var ds []float64
	for i := 0; i < reps; i++ {
		if i > 0 && release != nil {
			release(st)
		}
		var zero T
		st = zero
		runtime.GC()
		start := time.Now()
		s, err := setup()
		if err != nil {
			return st, err
		}
		ds = append(ds, time.Since(start).Seconds())
		st = s
	}
	r.set("setup_s", median(ds))
	return st, nil
}

// numGC is the number of completed garbage collections.
func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}
