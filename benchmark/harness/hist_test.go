package harness

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracle is the q-quantile of a sorted sample by the histogram's own
// definition: the value of rank q·(n−1).
func oracle(sorted []int64, q float64) float64 {
	return float64(sorted[int(math.Round(q*float64(len(sorted)-1)))])
}

func TestHistogramQuantilesAgainstSortedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() int64{
		// A latency-like body with a heavy tail, 50 µs … tens of ms.
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*0.8+11.5)) + 1 },
		// Two clusters, as a retransmit timer makes them.
		"bimodal": func() int64 {
			if rng.Intn(20) == 0 {
				return 50e6 + rng.Int63n(30e6)
			}
			return 2e6 + rng.Int63n(8e6)
		},
		"uniform-small": func() int64 { return rng.Int63n(300) },
	}
	for name, draw := range shapes {
		h := NewHistogram()
		sample := make([]int64, 200000)
		for i := range sample {
			sample[i] = draw()
			h.Record(sample[i])
		}
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		if h.Count() != uint64(len(sample)) {
			t.Fatalf("%s: count %d, want %d", name, h.Count(), len(sample))
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			got, want := h.Quantile(q), oracle(sample, q)
			// Within one bucket width (1/128) of the true sample, or
			// within one unit where values are exact.
			if tol := math.Max(want/subBuckets, 1); math.Abs(got-want) > tol {
				t.Errorf("%s: q%.3f = %.1f, sorted sample says %.1f (tolerance %.1f)", name, q, got, want, tol)
			}
		}
	}
}

func TestHistogramBucketsAreAtMostOnePercentWide(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100000; i++ {
		v := rng.Int63n(histMaxValue)
		if i%2 == 0 {
			v >>= uint(rng.Intn(40)) // cover the small octaves too
		}
		lo, hi := bucketBounds(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Fatalf("value %d landed in bucket [%v, %v)", v, lo, hi)
		}
		if v >= subBuckets && (hi-lo)/lo > 0.01 {
			t.Fatalf("bucket [%v, %v) of %d is %.2f%% wide", lo, hi, v, 100*(hi-lo)/lo)
		}
	}
	if bucketOf(histMaxValue+5) != histBuckets-1 || bucketOf(-3) != 0 {
		t.Fatal("out-of-range values must clamp to the end buckets")
	}
}

// Two goroutines' running counts, read at round boundaries, must give
// each round the histogram its samples alone would have made.
func TestLiveHistogramRoundsByDifference(t *testing.T) {
	lanes := []*liveHistogram{newLiveHistogram(), newLiveHistogram()}
	read := func() []uint64 {
		dst := make([]uint64, histBuckets)
		for _, l := range lanes {
			l.AddTo(dst)
		}
		return dst
	}
	prev, round := read(), NewHistogram()
	for r := int64(1); r <= 3; r++ {
		alone := NewHistogram()
		for v := int64(1); v <= 50000; v++ {
			lanes[v%2].Record(v * 13 * r)
			alone.Record(v * 13 * r)
		}
		cur := read()
		round.SetDiff(cur, prev)
		prev = cur
		if round.Count() != alone.Count() {
			t.Fatalf("round %d: %d samples, want %d", r, round.Count(), alone.Count())
		}
		for _, q := range []float64{0.5, 0.99} {
			if round.Quantile(q) != alone.Quantile(q) {
				t.Errorf("round %d: q%v = %v by difference, %v recorded alone", r, q, round.Quantile(q), alone.Quantile(q))
			}
		}
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	h, live := NewHistogram(), newLiveHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Record(123456); live.Record(123456) }); n != 0 {
		t.Fatalf("Record allocates %v times", n)
	}
}
