//go:build !race

// Benchmarks regenerating the paper's evaluation (§V), one per figure
// plus the ablations of §VI. Run:
//
//	go test -bench=. -benchmem
//
// Each iteration performs the figure's unit of work on the calibrated
// simulated testbed (internal/netsim.USBLink stands in for the paper's
// iPAQ↔laptop link); the reported ns/op at each payload size is the
// ordinate of the corresponding figure. cmd/benchfig prints the full
// series in one shot instead.
//
// The file is left out under the race detector: its instrumentation
// allocates and slows the hops unevenly, so neither the benchmarks nor
// the pins that read them mean anything there.
package smc_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/amuse/smc/internal/bench"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/wire"
)

// benchPayloads is a compact payload grid shared by the bus
// benchmarks; cmd/benchfig sweeps the figures' full grids.
var benchPayloads = []int{0, 1000, 3000, 5000}

// BenchmarkFig4aResponseTime measures one publish→deliver round per
// iteration for each bus flavour and payload size — Figure 4(a).
func BenchmarkFig4aResponseTime(b *testing.B) {
	for _, flavor := range bench.Flavors() {
		for _, size := range benchPayloads {
			name := fmt.Sprintf("%s/payload=%dB", flavor.Name, size)
			b.Run(name, func(b *testing.B) {
				env, err := bench.NewEnv(flavor, bench.EnvConfig{
					Link: netsim.USBLink, Subscribers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer env.Close()
				if _, err := env.PublishAndWait(size, 30*time.Second); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := env.PublishAndWait(size, 30*time.Second); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig4bThroughput streams windowed events for each flavour
// and payload size and reports payload KB/s — Figure 4(b).
func BenchmarkFig4bThroughput(b *testing.B) {
	for _, flavor := range bench.Flavors() {
		for _, size := range []int{250, 1000, 3000} {
			name := fmt.Sprintf("%s/payload=%dB", flavor.Name, size)
			b.Run(name, func(b *testing.B) {
				env, err := bench.NewEnv(flavor, bench.EnvConfig{
					Link: netsim.USBLink, Subscribers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer env.Close()
				b.ResetTimer()
				var bps float64
				var events int
				for i := 0; i < b.N; i++ {
					bps, events, err = env.Throughput(size, 500*time.Millisecond, 4)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(bps/1024, "KB/s")
				b.ReportMetric(float64(events), "events")
			})
		}
	}
}

// BenchmarkFig4bThroughputSweep extends Figure 4(b) beyond the paper:
// payload streaming at fan-outs of 1–8 subscribers across pipeline
// shard counts, with the host-cost model off so the bus pipeline
// itself — not the simulated 2006 PDA — is the measurand. The win of
// the sharded zero-copy pipeline (PR 1) shows up here.
func BenchmarkFig4bThroughputSweep(b *testing.B) {
	for _, fan := range []int{1, 4, 8} {
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("fanout=%d/shards=%d", fan, shards)
			b.Run(name, func(b *testing.B) {
				env, err := bench.NewEnv(bench.FastRaw, bench.EnvConfig{
					Link: netsim.USBLink, Subscribers: fan, Shards: shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer env.Close()
				b.ResetTimer()
				var bps float64
				var events int
				for i := 0; i < b.N; i++ {
					bps, events, err = env.Throughput(1000, 500*time.Millisecond, 4)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(bps/1024, "KB/s")
				b.ReportMetric(float64(events), "events")
			})
		}
	}
}

// BenchmarkReliableWindowE2E sweeps the reliable channel's sliding
// window through the full member path — publisher enqueue → bus →
// proxy → remote deliver — on the calibrated USB link with the cost
// model off. Window=1 is the seed's stop-and-wait on every hop;
// larger windows let both the publish hop and the proxy's pipelined
// delivery hop fill the link. Proxy coalescing is pinned off
// (BatchEvents: 1) so the sweep isolates the window.
func BenchmarkReliableWindowE2E(b *testing.B) {
	for _, window := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			stream := windowE2E(b, window)
			var eps float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eps = stream(200)
			}
			b.ReportMetric(eps, "events/sec")
		})
	}
}

// windowE2E is the member path on the USB link at the given window,
// proxy coalescing off.
func windowE2E(tb testing.TB, window int) (stream func(count int) float64) {
	return memberStream(tb, bench.EnvConfig{
		Link: netsim.USBLink, Window: window, BatchEvents: 1,
	}, 2*window)
}

// memberStream builds a one-publisher, one-subscriber deployment and
// returns its unit of work: stream count 250-byte events through it,
// at most inflight of them unacknowledged, for the events/sec end to
// end.
func memberStream(tb testing.TB, cfg bench.EnvConfig, inflight int) (stream func(count int) float64) {
	cfg.Subscribers = 1
	env, err := bench.NewEnv(bench.FastRaw, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(env.Close)
	return func(count int) float64 {
		eps, err := env.StreamAsync(250, count, inflight, 60*time.Second)
		if err != nil {
			tb.Fatal(err)
		}
		return eps
	}
}

// TestReliableWindowE2E pins, inside one run, what the window buys the
// full member path on the USB link — window=16 streams at least twice
// the events/sec of stop-and-wait (PR 2) — and what that stream may
// allocate: 200 events through a fresh deployment, pools cold, in at
// most 1 560 mallocs (PR 4 measured 1 300).
func TestReliableWindowE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	stopAndWait := windowE2E(t, 1)(200)
	stream := windowE2E(t, 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	windowed := stream(200)
	runtime.ReadMemStats(&after)
	if windowed < 2*stopAndWait {
		t.Errorf("window=16 streams %.0f events/sec, stop-and-wait %.0f: %.1f×, want ≥ 2×",
			windowed, stopAndWait, windowed/stopAndWait)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 1560 {
		t.Errorf("window=16 stream of 200 events made %d allocations, want ≤ 1560", mallocs)
	}
}

// lossyLAN is the batching benchmark's link: real latency and loss
// but no bandwidth cap, so packet count — not link capacity — is the
// bottleneck. On the bandwidth-bound USBLink coalescing cannot change
// events/sec (the same payload bytes must cross the wire either way);
// here every coalesced packet saves a full round of per-packet latency
// and loss exposure, which is exactly the effect being measured.
var lossyLAN = netsim.Profile{
	Name:      "lossy-lan",
	Latency:   2 * time.Millisecond,
	Jitter:    500 * time.Microsecond,
	Loss:      0.05,
	Duplicate: 0.02,
	Reorder:   0.1,
	ReorderBy: 2 * time.Millisecond,
}

// BenchmarkReliableWindowE2EBatched is the wire-level batching variant
// of BenchmarkReliableWindowE2E on the lossy latency-bound profile:
// stop-and-wait (the seed's behaviour), the PR 2 sliding window alone,
// and the window combined with 16-event coalescing at both the client
// publish hop and the proxy delivery hop.
func BenchmarkReliableWindowE2EBatched(b *testing.B) {
	variants := []struct {
		name          string
		window, batch int
	}{
		{"stop-and-wait", 1, 1},
		{"window=16", 16, 1},
		{"window=16/batch=16", 16, 16},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			stream := batchedE2E(b, v.window, v.batch)
			var eps float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eps = stream(400)
			}
			b.ReportMetric(eps, "events/sec")
		})
	}
}

// batchedE2E is the member path on lossyLAN; batch 1 turns proxy
// coalescing off. Enough events are in flight that size — not the
// flush deadline — cuts the batches.
func batchedE2E(tb testing.TB, window, batch int) (stream func(count int) float64) {
	return memberStream(tb, bench.EnvConfig{
		Link: lossyLAN, Window: window, BatchEvents: batch,
		BatchFlush: 200 * time.Microsecond,
	}, 2*window*batch)
}

// TestBatchingE2E pins PR 7's acceptance criteria inside one run: on
// the lossy latency-bound link, the window with 16-event coalescing
// streams at least 10× the events/sec of stop-and-wait and at least 3×
// the window alone.
func TestBatchingE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	// Stop-and-wait pays a lossy round trip per event on each hop: a
	// quarter of the benchmark's stream measures its rate as well.
	stopAndWait := batchedE2E(t, 1, 1)(100)
	windowed := batchedE2E(t, 16, 1)(400)
	batched := batchedE2E(t, 16, 16)(400)
	if batched < 10*stopAndWait {
		t.Errorf("batched streams %.0f events/sec, stop-and-wait %.0f: %.1f×, want ≥ 10×",
			batched, stopAndWait, batched/stopAndWait)
	}
	if batched < 3*windowed {
		t.Errorf("batched streams %.0f events/sec, window alone %.0f: %.1f×, want ≥ 3×",
			batched, windowed, batched/windowed)
	}
}

// BenchmarkLinkBaseline measures the raw simulated link with no bus in
// the path — the §V in-text calibration (≈575 KB/s, ≈1.5 ms).
func BenchmarkLinkBaseline(b *testing.B) {
	b.Run("latency", func(b *testing.B) {
		net := netsim.New(netsim.USBLink, netsim.WithSeed(7))
		defer net.Close()
		src, err := net.Attach(ident.New(1))
		if err != nil {
			b.Fatal(err)
		}
		dst, err := net.Attach(ident.New(2))
		if err != nil {
			b.Fatal(err)
		}
		payload := []byte{1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := src.Send(dst.LocalID(), payload); err != nil {
				b.Fatal(err)
			}
			if _, err := dst.RecvTimeout(5 * time.Second); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("throughput-4KB", func(b *testing.B) {
		net := netsim.New(netsim.USBLink, netsim.WithSeed(8))
		defer net.Close()
		src, err := net.Attach(ident.New(1))
		if err != nil {
			b.Fatal(err)
		}
		dst, err := net.Attach(ident.New(2))
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, 4096)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := src.Send(dst.LocalID(), payload); err != nil {
				b.Fatal(err)
			}
			if _, err := dst.RecvTimeout(5 * time.Second); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFanout measures delivery-to-all delay against the
// number of recipients (§VI).
func BenchmarkAblationFanout(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("subscribers=%d", n), func(b *testing.B) {
			env, err := bench.NewEnv(bench.FastFlavor, bench.EnvConfig{
				Link: netsim.USBLink, Subscribers: n,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			if _, err := env.PublishAndWait(500, 60*time.Second); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.PublishAndWait(500, 60*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMatcher isolates the matching mechanisms (no host
// cost, no network): match one event against n installed
// subscriptions. The translation overhead of the Siena engine is
// directly visible in ns/op and allocs/op.
func BenchmarkAblationMatcher(b *testing.B) {
	kinds := []matcher.Kind{matcher.KindSiena, matcher.KindFast, matcher.KindTyped}
	for _, kind := range kinds {
		for _, n := range []int{10, 100, 1000, 10000} {
			b.Run(fmt.Sprintf("%s/subs=%d", kind, n), func(b *testing.B) {
				m, err := matcher.New(kind)
				if err != nil {
					b.Fatal(err)
				}
				w := bench.NewMatcherWorkload(n)
				for i, f := range w.Filters {
					if err := m.Subscribe(ident.New(uint64(i+1)), f); err != nil {
						b.Fatal(err)
					}
				}
				sc := matcher.NewScratch()
				var dst []ident.ID
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = m.MatchAppendScratch(w.Events[i%len(w.Events)], dst[:0], sc)
				}
			})
		}
	}
}

// BenchmarkAblationQuench compares the publish path with and without
// quenching while no subscriber matches (§VI power saving): quenched
// publishers skip the radio entirely.
func BenchmarkAblationQuench(b *testing.B) {
	for _, quench := range []bool{false, true} {
		name := "off"
		if quench {
			name = "on"
		}
		b.Run("quench="+name, func(b *testing.B) {
			env, err := bench.NewEnv(bench.FastFlavor, bench.EnvConfig{
				Link: netsim.USBLink, Subscribers: 1,
				NoSubscriptions: true, Quench: quench,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			// Prime: first publish triggers the quench.
			_ = env.Pub.Publish(event.NewTyped("bench"))
			time.Sleep(50 * time.Millisecond)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = env.Pub.Publish(event.NewTyped("bench").SetInt("n", int64(i)))
			}
			b.StopTimer()
			st := env.Pub.Stats()
			b.ReportMetric(float64(st.Published), "transmitted")
			b.ReportMetric(float64(st.QuenchSuppressed), "suppressed")
		})
	}
}

// BenchmarkAblationRedelivery measures a full disconnect/redeliver
// cycle (§VI): publish through a window where the subscriber is
// unreachable, restore it, and wait for complete in-order delivery.
func BenchmarkAblationRedelivery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env, err := bench.NewEnv(bench.FastFlavor, bench.EnvConfig{
			Link: netsim.USBLink, Subscribers: 1, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		sub := env.Subs[0]
		b.StartTimer()

		env.Net.Isolate(sub.ID())
		for k := 0; k < 5; k++ {
			if err := env.Pub.Publish(event.NewTyped("bench").SetInt("n", int64(k))); err != nil {
				b.Fatal(err)
			}
		}
		env.Net.Restore(sub.ID())
		for k := 0; k < 5; k++ {
			if _, err := sub.NextEvent(30 * time.Second); err != nil {
				b.Fatalf("delivery %d: %v", k, err)
			}
		}
		b.StopTimer()
		env.Close()
		b.StartTimer()
	}
}

// BenchmarkManagementWorkload pushes the realistic SMC traffic mix
// (§II-C: mostly small readings, some alarms, rare membership/control)
// through each bus flavour with the standard monitoring subscriptions
// installed, measuring end-to-end cost per event.
func BenchmarkManagementWorkload(b *testing.B) {
	for _, flavor := range bench.Flavors() {
		b.Run(flavor.Name, func(b *testing.B) {
			env, err := bench.NewEnv(flavor, bench.EnvConfig{
				Link: netsim.USBLink, Subscribers: 1, NoSubscriptions: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			sub := env.Subs[0]
			// An empty filter receives the whole stream, so every
			// published event can be awaited and ns/op covers the
			// full publish→match→deliver pipeline.
			if err := sub.Subscribe(event.NewFilter()); err != nil {
				b.Fatal(err)
			}
			w := bench.NewWorkload(bench.DefaultMix(), 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, _ := w.Next()
				if err := env.Pub.Publish(e); err != nil {
					b.Fatal(err)
				}
				if _, err := sub.NextEvent(30 * time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireEncoding covers the byte-array boundary of §III-D:
// event encode and decode cost at representative sizes.
func BenchmarkWireEncoding(b *testing.B) {
	for _, size := range []int{64, 1024, 4096} {
		e := event.NewTyped("bench").SetBytes("payload", make([]byte, size))
		b.Run(fmt.Sprintf("encode/%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				benchSink = wire.EncodeEvent(e)
			}
		})
		buf := wire.EncodeEvent(e)
		b.Run(fmt.Sprintf("decode/%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := wire.DecodeEvent(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchSink []byte
