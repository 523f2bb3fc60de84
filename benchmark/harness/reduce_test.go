package harness

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{9, 1, 5}, 5},
		{[]float64{8, 2, 6, 4}, 5},
	} {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("Median reordered its argument")
	}
}

// The expected values are what Python prints for
// statistics.quantiles(data, n=4): the driver's own reducer.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 3, 1, 4, 2}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1.2, 1.1, 1.4, 1.3, 1.25, 1.22, 1.31, 1.18, 1.27, 1.5}, 1.195, 1.3325},
	} {
		q1, q3 := Quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("Quartiles(%v) = %v, %v; Python says %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := Spread([]float64{1, 2, 3, 4, 5}), 1.0; got != want {
		t.Errorf("Spread = %v, want %v", got, want)
	}
}

func TestRusageReaders(t *testing.T) {
	before := cpuTime()
	x := 0.0
	for i := 0; i < 20_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	if after := cpuTime(); after <= before {
		t.Errorf("CPU time did not advance over a busy loop (%v → %v, %v)", before, after, x)
	}
	if rss := peakRSSMiB(); rss < 1 || rss > 1<<20 {
		t.Errorf("peak RSS = %v MiB", rss)
	}
}
