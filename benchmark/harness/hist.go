// Package harness is the smcbench measurement harness: it deploys a
// real smc.Cell in-process, drives credit-paced publishers against it,
// verifies every delivery against a reference matcher, and reduces
// what it saw to the metrics BENCHMARK.json names. See ../README.md
// for the metric and workload definitions and the reasons behind them.
package harness

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a preallocated log-linear histogram of non-negative
// int64 samples (nanoseconds here). Every octave is cut into
// subBuckets equal slices, so a bucket is never wider than
// 1/subBuckets (0.78 %) of the values it holds: a 1 % step in a
// quantile cannot hide inside one bucket, and cannot be faked by
// samples hopping across a bucket edge. Values below subBuckets are
// exact. Record never allocates. A Histogram is not safe for
// concurrent use; each recording goroutine owns one and they are
// merged after the run.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
}

const (
	subBuckets   = 128
	subBits      = 7 // log2(subBuckets)
	histOctaves  = 34
	histBuckets  = subBuckets * (histOctaves + 1)
	histMaxValue = int64(subBuckets)<<histOctaves - 1 // ≈ 36 minutes in ns
)

// NewHistogram allocates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets)}
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	if v > histMaxValue {
		v = histMaxValue
	}
	// Octave e holds [subBuckets<<e, subBuckets<<(e+1)), cut into
	// subBuckets slices of width 1<<e.
	e := bits.Len64(uint64(v)) - 1 - subBits
	return subBuckets*(e+1) + int(v>>uint(e)) - subBuckets
}

// bucketBounds returns the half-open value range [lo, hi) of a bucket.
func bucketBounds(i int) (lo, hi float64) {
	if i < subBuckets {
		return float64(i), float64(i + 1)
	}
	e := i/subBuckets - 1
	m := int64(i%subBuckets + subBuckets)
	return float64(m << uint(e)), float64((m + 1) << uint(e))
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += float64(v)
}

// SetDiff makes h the histogram of the samples recorded between two
// readings of a running count (liveHistogram.AddTo), keeping its
// storage. Its Mean is not defined.
func (h *Histogram) SetDiff(cur, prev []uint64) {
	h.total, h.sum = 0, 0
	for i := range h.counts {
		h.counts[i] = cur[i] - prev[i]
		h.total += h.counts[i]
	}
}

// Count reports the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.total }

// Mean reports the arithmetic mean (exact, not bucketed).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with linear
// interpolation inside the bucket that holds it: the sample of rank
// q·(n−1) in sorted order, placed within its bucket by its rank among
// the bucket's samples. Zero when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total-1)
	var before uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(before+c) > rank {
			lo, hi := bucketBounds(i)
			// The bucket's c samples are taken to sit at the centres
			// of c equal slices of [lo, hi).
			frac := (rank - float64(before) + 0.5) / float64(c)
			return lo + (hi-lo)*math.Min(frac, 1)
		}
		before += c
	}
	_, hi := bucketBounds(len(h.counts) - 1)
	return hi
}

// liveHistogram is a histogram with the same buckets that one
// goroutine records into while another reads it: the delivering
// goroutines never stop for a round boundary, so the controller reads
// the running counts at each boundary and works on the differences.
type liveHistogram struct {
	counts []atomic.Uint64
}

func newLiveHistogram() *liveHistogram {
	return &liveHistogram{counts: make([]atomic.Uint64, histBuckets)}
}

// Record adds one sample.
func (h *liveHistogram) Record(v int64) { h.counts[bucketOf(v)].Add(1) }

// AddTo adds the counts so far to dst (histBuckets long).
func (h *liveHistogram) AddTo(dst []uint64) {
	for i := range h.counts {
		dst[i] += h.counts[i].Load()
	}
}
