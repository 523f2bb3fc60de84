package harness

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Median returns the median of vs (mean of the middle pair for an even
// count); zero when empty. vs is not modified.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Quartiles returns the first and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) does (the "exclusive" method
// the benchmark's driver judges spread by). It needs two values.
func Quartiles(vs []float64) (q1, q3 float64) {
	if len(vs) < 2 {
		return Median(vs), Median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// Spread is the interquartile range of vs as a share of its median:
// the figure the driver compares with a metric's bound.
func Spread(vs []float64) float64 {
	med := Median(vs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(vs)
	return (q3 - q1) / med
}

// cpuTime reports the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reports the process's peak resident set size in MiB
// (ru_maxrss is in KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostCPU reads the first line of /proc/stat: the jiffies the
// hypervisor ran someone else while a vCPU of this guest was runnable
// (steal), and all jiffies. Zeros where it cannot be read.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
