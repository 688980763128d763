package main

import (
	"runtime"
	"sort"
	"time"
)

// samples collects durations; quantiles interpolate linearly between order
// statistics.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// quantile returns the q-quantile in seconds; 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	i := int(pos)
	if i >= len(c)-1 {
		return c[len(c)-1]
	}
	return c[i] + (pos-float64(i))*(c[i+1]-c[i])
}

func (s samples) median() float64 { return s.quantile(0.5) }

// p99Chunk is how many consecutive samples each tail estimate covers: a
// p99 over 1000 samples has ten beyond it.
const p99Chunk = 1000

// chunkedP99 is the median, over consecutive chunks of p99Chunk samples in
// the order they were taken, of each chunk's 99th percentile. A stall of the
// machine moves one chunk's estimate, not the run's. Fewer samples than two
// chunks give the plain p99.
func (s samples) chunkedP99() float64 {
	if len(s) < 2*p99Chunk {
		return s.quantile(0.99)
	}
	var per []float64
	for i := 0; i+p99Chunk <= len(s); i += p99Chunk {
		per = append(per, s[i:i+p99Chunk].quantile(0.99))
	}
	return medianOf(per)
}

// medianOf returns the median of plain values.
func medianOf(v []float64) float64 { return samples(v).median() }

// memSnap is the slice of runtime.MemStats the benchmark reports from.
type memSnap struct {
	totalAlloc uint64
	heapAlloc  uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.HeapAlloc, m.NumGC, m.PauseTotalNs}
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// liveHeap collects twice and returns the heap still in use.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readMem().heapAlloc
}

// timed runs fn and returns its wall-clock duration.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
