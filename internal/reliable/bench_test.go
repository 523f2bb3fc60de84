//go:build !race

// The channel benchmarks and the pins that read them: neither means
// anything under the race detector, whose instrumentation allocates
// and slows the two sides unevenly.

package reliable

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/wire"
)

// benchLossy is the netsim lossy profile the window benchmark runs
// over: real latency so round trips cost something, loss so the
// retransmission machinery is in the measured path.
var benchLossy = netsim.Profile{
	Name:    "bench-lossy",
	Latency: 500 * time.Microsecond,
	Jitter:  200 * time.Microsecond,
	Loss:    0.05,
}

func benchCfg(window int) Config {
	return Config{
		RetryTimeout:    10 * time.Millisecond,
		MaxRetryTimeout: 80 * time.Millisecond,
		MaxRetries:      40,
		Window:          window,
		QueueDepth:      8192,
	}
}

// benchPair attaches two channels of the given window to a fresh
// network and returns the sender and the receiver's address; the
// receiver drains and recycles whatever arrives.
func benchPair(tb testing.TB, p netsim.Profile, seed int64, window int) (a *Channel, dst ident.ID) {
	n := netsim.New(p, netsim.WithSeed(seed))
	tb.Cleanup(func() { n.Close() })
	ta, err := n.Attach(ident.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := n.Attach(ident.New(2))
	if err != nil {
		tb.Fatal(err)
	}
	a, recv := New(ta, benchCfg(window)), New(tr, benchCfg(window))
	tb.Cleanup(func() {
		a.Close()
		recv.Close()
	})
	go func() {
		for {
			pkt, err := recv.Recv()
			if err != nil {
				return
			}
			pkt.Release() // consumer contract: recycle the pooled packet
		}
	}()
	return a, tr.LocalID()
}

// roundTrips sends n payloads to dst with at most window of them
// unacknowledged, and returns once every one has been acknowledged.
func roundTrips(a *Channel, dst ident.ID, payload []byte, window, n int) error {
	pending := make([]*Completion, 0, window)
	wait := func() error {
		err := pending[0].Wait()
		pending[0].Recycle()
		pending = append(pending[:0], pending[1:]...)
		return err
	}
	for i := 0; i < n; i++ {
		pending = append(pending, a.SendAsync(dst, wire.PktEvent, payload))
		if len(pending) == window {
			if err := wait(); err != nil {
				return err
			}
		}
	}
	for len(pending) > 0 {
		if err := wait(); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkReliableWindow measures acknowledged round-trips per second
// through one destination at each window size on the lossy profile.
// Window=1 is the seed's stop-and-wait; the ≥2× gain at Window=16 is
// PR 2's acceptance criterion, pinned by TestReliableWindowGain.
func BenchmarkReliableWindow(b *testing.B) {
	for _, window := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			a, dst := benchPair(b, benchLossy, 17, window)
			b.ReportAllocs()
			b.ResetTimer()
			if err := roundTrips(a, dst, windowPayload, window, b.N); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
		})
	}
}

var windowPayload = []byte("reliable-window-benchmark-payload")

// BenchmarkReliableSendAllocs isolates the per-send allocation cost on
// a perfect link: the seed allocated a waiter channel and a map entry
// per send plus a marshal buffer per attempt; the windowed pipeline
// pools the marshal buffers and keeps per-send state in the queue.
func BenchmarkReliableSendAllocs(b *testing.B) {
	a, dst := benchPair(b, netsim.Perfect, 19, 16)
	b.ReportAllocs()
	b.ResetTimer()
	if err := roundTrips(a, dst, windowPayload, 16, b.N); err != nil {
		b.Fatal(err)
	}
}

// TestReliableSendZeroAlloc pins an acknowledged send at no allocation
// in steady state — pooled op, marshal buffer, completion and received
// packet — on the perfect link and, retransmissions included, on the
// lossy one. Whole-process mallocs over the run divided by the sends,
// as allocs/op counts them.
func TestReliableSendZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin")
	}
	for _, tc := range []struct {
		name string
		link netsim.Profile
		n    int
	}{
		{"perfect", netsim.Perfect, 20000},
		{"lossy", benchLossy, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, dst := benchPair(t, tc.link, 17, 16)
			// Warm the pools and free lists outside the measurement.
			if err := roundTrips(a, dst, windowPayload, 16, 200); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := roundTrips(a, dst, windowPayload, 16, tc.n); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if mallocs := after.Mallocs - before.Mallocs; mallocs >= uint64(tc.n) {
				t.Fatalf("acknowledged send allocates %.2f objects/send, want 0", float64(mallocs)/float64(tc.n))
			}
		})
	}
}

// TestReliableWindowGain pins PR 2's acceptance criterion inside one
// run: on the lossy profile a window of 16 completes at least twice the
// round-trips per second of stop-and-wait.
func TestReliableWindowGain(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	rate := func(window, n int) float64 {
		a, dst := benchPair(t, benchLossy, 17, window)
		start := time.Now()
		if err := roundTrips(a, dst, windowPayload, window, n); err != nil {
			t.Fatal(err)
		}
		return float64(n) / time.Since(start).Seconds()
	}
	stopAndWait, windowed := rate(1, 250), rate(16, 2000)
	if windowed < 2*stopAndWait {
		t.Fatalf("window=16 runs %.0f rt/s, stop-and-wait %.0f: %.1f×, want ≥ 2×",
			windowed, stopAndWait, windowed/stopAndWait)
	}
}
