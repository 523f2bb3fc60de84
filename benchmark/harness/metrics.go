package harness

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/store"
)

// MetricDef declares one metric of the benchmark: BENCHMARK.json lists
// exactly these (manifest_test.go holds the two together).
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound float64
}

// EndToEnd is what an untraced run reports, on every workload. Each
// bound is the larger of twice the largest gap between A/A set medians
// and three times the largest spread seen on any workload
// (results/README.md), rounded up to a whole percent, never under 5 %
// and never over the driver's cap of 25 %. The issue wanted 10 % at
// most; on this host one hour's runs of one binary differ from the
// next hour's by more than that (ISSUE.md, amendment 7).
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"response_p50_us", "us", "lower", 0.25},
	{"response_p99_us", "us", "lower", 0.25},
	{"delivered_eps", "1/s", "higher", 0.25},
	{"cpu_us_per_delivery", "us", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// PerLayer is what a traced run reports, on every workload; a metric
// of a layer the workload bypasses reads 0.
var PerLayer = []MetricDef{
	{"hop.publish_call_us", "us", "lower", 0},
	{"hop.ack_p50_us", "us", "lower", 0},
	{"hop.ack_p99_us", "us", "lower", 0},
	{"hop.fanout_p50_us", "us", "lower", 0},
	{"hop.fanout_p99_us", "us", "lower", 0},
	{"loadgen.credit_wait_share", "ratio", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"harness.response_samples", "count", "higher", 0},
	{"harness.generate_s", "s", "lower", 0},
	{"harness.build_s", "s", "lower", 0},
	{"harness.join_s", "s", "lower", 0},
	{"harness.subscribe_s", "s", "lower", 0},
	{"harness.warmup_s", "s", "lower", 0},
	{"smc.join_us", "us", "lower", 0},
	{"smc.subscribe_us", "us", "lower", 0},
	{"smc.rejoin_us", "us", "lower", 0},
	{"event.build_ns", "ns", "lower", 0},
	{"wire.encode_ns", "ns", "lower", 0},
	{"wire.decode_ns", "ns", "lower", 0},
	{"wire.batch_pack_ns_per_event", "ns", "lower", 0},
	{"wire.batch_unpack_ns_per_event", "ns", "lower", 0},
	{"wire.event_bytes", "bytes", "lower", 0},
	{"matcher.fast.match_ns", "ns", "lower", 0},
	{"matcher.siena.match_ns", "ns", "lower", 0},
	{"matcher.typed.match_ns", "ns", "lower", 0},
	{"matcher.fast.subscribe_us", "us", "lower", 0},
	{"matcher.matches_per_event", "count", "higher", 0},
	{"bus.local_publish_ns", "ns", "lower", 0},
	{"bus.published", "count", "higher", 0},
	{"bus.matched", "count", "higher", 0},
	{"bus.no_match", "count", "higher", 0},
	{"bus.delivered_local", "count", "higher", 0},
	{"bus.enqueued_remote", "count", "higher", 0},
	{"bus.dropped", "count", "lower", 0},
	{"proxy.enqueue_deliver_ns", "ns", "lower", 0},
	{"proxy.enqueued", "count", "higher", 0},
	{"proxy.delivered", "count", "higher", 0},
	{"proxy.dropped_oldest", "count", "lower", 0},
	{"proxy.redeliveries", "count", "lower", 0},
	{"proxy.batches", "count", "higher", 0},
	{"proxy.events_per_batch", "count", "higher", 0},
	{"reliable.send_ack_ns", "ns", "lower", 0},
	{"reliable.rtt_us", "us", "lower", 0},
	{"reliable.sent", "count", "higher", 0},
	{"reliable.acked", "count", "higher", 0},
	{"reliable.retransmits", "count", "lower", 0},
	{"reliable.fast_retransmits", "count", "lower", 0},
	{"reliable.retransmit_ratio", "ratio", "lower", 0},
	{"reliable.dups_dropped", "count", "lower", 0},
	{"reliable.buffered", "count", "lower", 0},
	{"reliable.piggyback_acks", "count", "higher", 0},
	{"reliable.batches_sent", "count", "higher", 0},
	{"reliable.stream_resets", "count", "lower", 0},
	{"reliable.pool_leak", "count", "lower", 0},
	{"transport.mem.sendrecv_ns", "ns", "lower", 0},
	{"transport.udp.sendrecv_ns", "ns", "lower", 0},
	{"transport.udp.batch_sendrecv_ns_per_dgram", "ns", "lower", 0},
	{"netsim.sent", "count", "higher", 0},
	{"netsim.dropped", "count", "lower", 0},
	{"netsim.duplicated", "count", "lower", 0},
	{"netsim.reordered", "count", "lower", 0},
	{"netsim.bytes_per_delivery", "bytes", "lower", 0},
	{"client.published", "count", "higher", 0},
	{"client.events_received", "count", "higher", 0},
	{"client.inbox_dropped", "count", "lower", 0},
	{"client.durable_received", "count", "higher", 0},
	{"client.durable_deduped", "count", "lower", 0},
	{"store.append_ns", "ns", "lower", 0},
	{"store.replay_ns", "ns", "lower", 0},
	{"store.recover_s", "s", "lower", 0},
	{"store.appended", "count", "higher", 0},
	{"store.evicted", "count", "lower", 0},
	{"store.segments", "count", "lower", 0},
	{"store.leaked_segments", "count", "lower", 0},
	{"durable.lag_max", "count", "lower", 0},
	{"durable.catchup_eps", "1/s", "higher", 0},
	{"runtime.allocs_per_delivery", "count", "lower", 0},
	{"runtime.bytes_per_delivery", "bytes", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0},
	{"runtime.heap_inuse_mb", "MiB", "lower", 0},
	{"runtime.goroutines", "count", "lower", 0},
}

// counterSnapshot is every layer's public counters at one instant.
type counterSnapshot struct {
	bus      bus.Stats
	proxy    proxy.Stats
	reliable reliable.Stats // the cell's bus endpoint
	client   client.Stats   // summed over publishers and subscribers
	netsim   netsim.Stats
	store    store.Stats
	lagMax   uint64
	consumed uint64
	poolLeak uint64
}

// snapshot reads every layer's Stats().
func (r *run) snapshot() counterSnapshot {
	var c counterSnapshot
	c.bus = r.cell.Bus.Stats()
	c.reliable, _ = r.cell.ChannelStats()
	c.client, c.proxy = r.retiredClient, r.retiredProxy
	for _, d := range r.devices() {
		addClientStats(&c.client, d.Client.Stats())
		if px := r.cell.Bus.MemberProxy(d.Client.ID()); px != nil {
			addProxyStats(&c.proxy, px.Stats())
		}
	}
	if r.net != nil {
		c.netsim = r.net.Stats()
	}
	if r.log != nil {
		c.store = r.log.Stats()
		_, rows := r.cell.Bus.LogReport()
		for _, row := range rows {
			c.lagMax = max(c.lagMax, row.Lag)
		}
	}
	for _, s := range r.subs {
		c.consumed += s.consumed.Load()
	}
	// The inbound packet pools balance once nothing is in flight; a
	// heartbeat may be passing through at any instant, so take the
	// lowest of a few readings.
	c.poolLeak = ^uint64(0)
	for i := 0; i < 20 && c.poolLeak != 0; i++ {
		if i > 0 {
			time.Sleep(5 * time.Millisecond)
		}
		acquired, recycled, _ := r.cell.LeakCheck()
		c.poolLeak = min(c.poolLeak, acquired-recycled)
	}
	return c
}

// verify closes the books: whatever is still expected was never
// delivered, and every drop or leak counter must be zero.
func (r *run) verify(res *Result, final counterSnapshot, leakedSegments uint64, runErr error) {
	problem := func(n uint64, format string, args ...any) {
		if n > 0 {
			res.Failed += n
			res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
		}
	}
	if runErr != nil {
		res.Problems = append(res.Problems, runErr.Error())
	}
	var missing, mismatched, publishFailures, overflow uint64
	for _, s := range r.subs {
		for _, rg := range s.rings {
			missing += uint64(rg.len())
		}
	}
	for _, l := range r.lanes {
		mismatched += l.failed.Load()
	}
	for _, p := range r.pubs {
		res.Attempted += p.attempted
		publishFailures += p.failed.Load()
		overflow += p.overflow
	}
	if res.Attempted == 0 {
		res.Problems = append(res.Problems, "no deliveries were attempted")
	}
	problem(missing, "%d expected deliveries never arrived", missing)
	problem(mismatched, "%d deliveries were duplicated, out of order or unexpected", mismatched)
	problem(publishFailures, "%d publishes failed", publishFailures)
	problem(overflow, "%d expectations did not fit: a subscriber fell a whole ring behind its publisher", overflow)
	problem(final.bus.Dropped, "bus.dropped = %d", final.bus.Dropped)
	problem(final.proxy.DroppedOldest, "proxy.dropped_oldest = %d", final.proxy.DroppedOldest)
	inboxDropped := final.client.EventsReceived - min(final.client.EventsReceived, final.consumed)
	problem(inboxDropped, "client.inbox_dropped = %d (received by clients, never handed to the subscriber)", inboxDropped)
	problem(final.poolLeak, "reliable.pool_leak = %d", final.poolLeak)
	problem(leakedSegments, "store.leaked_segments = %d", leakedSegments)
}

// endToEnd fills the untraced run's metrics.
func (r *run) endToEnd(res *Result, m *measurement) {
	set := func(name string, v float64) { res.Metrics[name] = Metric{Value: v, Unit: unitOf(EndToEnd, name)} }
	set("setup_s", Median(m.setups))
	set("response_p50_us", Median(pick(m.steady, false, p50))/1e3)
	set("response_p99_us", Median(pick(m.steady, false, p99))/1e3)
	set("delivered_eps", Median(pick(m.saturate, false, eps)))
	set("cpu_us_per_delivery", Median(pick(m.saturate, false, cpuUs)))
	set("peak_rss_mb", peakRSSMiB())
}

// perLayer fills the traced run's metrics: harness spans, counters
// read from each layer's Stats() over the measured phases, and the
// layer probes.
func (r *run) perLayer(res *Result, m *measurement, final counterSnapshot, leakedSegments uint64, probes map[string]float64) {
	out := make(map[string]float64, len(PerLayer))
	for name, v := range probes {
		out[name] = v
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	d := func(after, before uint64) float64 { return float64(after - before) }

	if m.hops.publishCall != nil {
		out["hop.publish_call_us"] = us(m.hops.publishCall.Mean())
		out["hop.ack_p50_us"] = us(m.hops.ack.Quantile(0.50))
		out["hop.ack_p99_us"] = us(m.hops.ack.Quantile(0.99))
		out["hop.fanout_p50_us"] = us(m.hops.fanout.Quantile(0.50))
		out["hop.fanout_p99_us"] = us(m.hops.fanout.Quantile(0.99))
	}
	out["loadgen.credit_wait_share"] = m.creditWait
	untraced := Median(pick(m.saturate, false, eps))
	traced := Median(pick(m.saturate, true, eps))
	out["trace.overhead_pct"] = 100 * ratio(untraced-traced, untraced)
	if m.response != nil {
		out["harness.response_samples"] = float64(m.response.Count())
	}
	out["harness.generate_s"] = m.generate.Seconds()
	out["harness.build_s"] = r.setup.build.Seconds()
	out["harness.join_s"] = r.setup.join.Seconds()
	out["harness.subscribe_s"] = r.setup.subscribe.Seconds()
	out["harness.warmup_s"] = r.setup.warmup.Seconds()
	out["smc.join_us"] = ratio(float64(r.setup.join.Microseconds()), float64(r.setup.joins))
	out["smc.subscribe_us"] = ratio(float64(r.setup.subscribe.Microseconds()), float64(r.setup.subscriptions))
	out["smc.rejoin_us"] = ratio(float64(r.rejoinTime.Microseconds()), float64(r.rejoins))

	var events, deliveries float64
	for _, p := range r.pubs {
		for _, pe := range p.pool {
			events++
			deliveries += float64(pe.deliveries)
		}
	}
	out["matcher.matches_per_event"] = ratio(deliveries, events)

	b, a := m.before, final
	out["bus.published"] = d(a.bus.Published, b.bus.Published)
	out["bus.matched"] = d(a.bus.Matched, b.bus.Matched)
	out["bus.no_match"] = d(a.bus.NoMatch, b.bus.NoMatch)
	out["bus.delivered_local"] = d(a.bus.DeliveredLocal, b.bus.DeliveredLocal)
	out["bus.enqueued_remote"] = d(a.bus.EnqueuedRemote, b.bus.EnqueuedRemote)
	out["bus.dropped"] = float64(a.bus.Dropped)

	out["proxy.enqueued"] = d(a.proxy.Enqueued, b.proxy.Enqueued)
	out["proxy.delivered"] = d(a.proxy.Delivered, b.proxy.Delivered)
	out["proxy.dropped_oldest"] = float64(a.proxy.DroppedOldest)
	out["proxy.redeliveries"] = d(a.proxy.Redeliveries, b.proxy.Redeliveries)
	out["proxy.batches"] = d(a.proxy.Batches, b.proxy.Batches)
	out["proxy.events_per_batch"] = ratio(d(a.proxy.BatchedEvents, b.proxy.BatchedEvents), out["proxy.batches"])

	out["reliable.sent"] = d(a.reliable.Sent, b.reliable.Sent)
	out["reliable.acked"] = d(a.reliable.Acked, b.reliable.Acked)
	out["reliable.retransmits"] = d(a.reliable.Retransmits, b.reliable.Retransmits)
	out["reliable.fast_retransmits"] = d(a.reliable.FastRetransmits, b.reliable.FastRetransmits)
	out["reliable.retransmit_ratio"] = ratio(out["reliable.retransmits"], out["reliable.sent"])
	out["reliable.dups_dropped"] = d(a.reliable.DupsDropped, b.reliable.DupsDropped)
	out["reliable.buffered"] = d(a.reliable.Buffered, b.reliable.Buffered)
	out["reliable.piggyback_acks"] = d(a.reliable.PiggybackAcks, b.reliable.PiggybackAcks)
	out["reliable.batches_sent"] = d(a.reliable.BatchesSent, b.reliable.BatchesSent)
	out["reliable.stream_resets"] = float64(a.reliable.StreamResets)
	out["reliable.pool_leak"] = float64(a.poolLeak)

	out["netsim.sent"] = d(a.netsim.Sent, b.netsim.Sent)
	out["netsim.dropped"] = d(a.netsim.Dropped, b.netsim.Dropped)
	out["netsim.duplicated"] = d(a.netsim.Duplicated, b.netsim.Duplicated)
	out["netsim.reordered"] = d(a.netsim.Reordered, b.netsim.Reordered)
	measured := d(a.consumed, b.consumed)
	out["netsim.bytes_per_delivery"] = ratio(d(a.netsim.BytesSent, b.netsim.BytesSent), measured)

	out["client.published"] = d(a.client.Published, b.client.Published)
	out["client.events_received"] = d(a.client.EventsReceived, b.client.EventsReceived)
	out["client.inbox_dropped"] = float64(a.client.EventsReceived - min(a.client.EventsReceived, a.consumed))
	out["client.durable_received"] = d(a.client.DurableReceived, b.client.DurableReceived)
	out["client.durable_deduped"] = d(a.client.DurableDeduped, b.client.DurableDeduped)

	out["store.appended"] = d(a.store.Appended, b.store.Appended)
	out["store.evicted"] = d(a.store.Evicted, b.store.Evicted)
	out["store.segments"] = float64(a.store.Segments)
	out["store.leaked_segments"] = float64(leakedSegments)
	out["durable.lag_max"] = float64(a.lagMax)
	out["durable.catchup_eps"] = Median(m.catchupEps)

	sat := float64(m.loadDeliveries)
	out["runtime.allocs_per_delivery"] = ratio(d(m.memAfter.Mallocs, m.memBefore.Mallocs), sat)
	out["runtime.bytes_per_delivery"] = ratio(d(m.memAfter.TotalAlloc, m.memBefore.TotalAlloc), sat)
	out["runtime.gc_cycles"] = float64(m.memAfter.NumGC - m.memBefore.NumGC)
	out["runtime.gc_pause_total_ms"] = d(m.memAfter.PauseTotalNs, m.memBefore.PauseTotalNs) / 1e6
	out["runtime.heap_inuse_mb"] = float64(m.memAfter.HeapInuse) / (1 << 20)
	out["runtime.goroutines"] = float64(m.goroutines)

	for _, def := range PerLayer {
		res.Metrics[def.Name] = Metric{Value: out[def.Name], Unit: def.Unit}
	}
}

func unitOf(defs []MetricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// environment records what the numbers were measured on and with.
func (r *run) environment(opts Options, m *measurement) map[string]string {
	env := map[string]string{
		"nproc":            fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":       fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":               runtime.Version(),
		"kernel":           kernelRelease(),
		"seed":             fmt.Sprint(opts.Seed),
		"seconds":          fmt.Sprint(opts.Seconds),
		"setups":           fmt.Sprint(len(m.setups)),
		"warmup_events":    fmt.Sprintf("%d per publisher", r.spec.warmupEvents),
		"steady":           fmt.Sprintf("%d rounds of about %v, credit %d per publisher, closed loop", len(m.steady), r.spec.roundLen, r.spec.steadyCredit),
		"saturate":         fmt.Sprintf("%d rounds of about %v, credit %d per publisher", len(m.saturate), r.spec.roundLen, r.spec.saturateCredit),
		"publishers":       fmt.Sprint(len(r.pubs)),
		"subscribers":      fmt.Sprint(len(r.subs)),
		"subscriptions":    fmt.Sprint(r.setup.subscriptions),
		"system_events":    fmt.Sprint(r.system.Load()),
		"response_samples": "0",
		"out_dir":          opts.OutDir,
		// Steal is the one interference a guest can see; a neighbour on
		// the sibling hyperthread slows the clock and shows nowhere.
		"host_steal": fmt.Sprintf("%.1f %% of the guest's CPU time during the measured phases", 100*m.stolen),
	}
	if m.response != nil {
		// The reported response times are medians over the rounds; the
		// pooled figures are here to compare them with.
		env["response_samples"] = fmt.Sprint(m.response.Count())
		env["response_pooled"] = fmt.Sprintf("p50 %.2f us, p99 %.2f us over all steady rounds together",
			m.response.Quantile(0.50)/1e3, m.response.Quantile(0.99)/1e3)
	}
	env["setups_s"] = fmt.Sprintf("%.3f", m.setups)
	env["steady_p99_us"] = roundSpread(m.steady, func(s roundSample) float64 { return s.p99 / 1e3 })
	env["steady_eps"] = roundSpread(m.steady, eps)
	env["saturate_eps"] = roundSpread(m.saturate, eps)
	if r.spec.catchupRounds > 0 {
		env["catchup"] = fmt.Sprintf("%d rounds, gap %d events per publisher, %d replayed deliveries at %.0f per second each round",
			r.spec.catchupRounds, r.spec.gapEvents, m.catchupDelivered, m.catchupEps)
		env["durable_dir_fs"] = fsType(opts.OutDir)
	}
	return env
}

// roundSpread prints how f spread over the untraced rounds of a phase.
func roundSpread(rs []roundSample, f func(roundSample) float64) string {
	vs := pick(rs, false, f)
	if len(vs) == 0 {
		return "no rounds"
	}
	q1, q3 := Quartiles(vs)
	return fmt.Sprintf("min %.0f  q1 %.0f  median %.0f  q3 %.0f  max %.0f", slices.Min(vs), q1, Median(vs), q3, slices.Max(vs))
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
