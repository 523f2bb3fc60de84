package harness

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/amuse/smc/internal/bootstrap"
	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

// Layer probes: each times one layer's public entry points from
// outside, alone, on a sample of the very events and filters the
// workload generated. They run after the traced run's phases, only for
// the layers the workload exercises; the rest read 0. A probe that
// cannot run (no loopback UDP in the sandbox) reads 0 as well.

// probeBatch is how long one timed batch of a probe lasts, probeReps
// how many batches the reported median is taken over.
const (
	probeBatch = 15 * time.Millisecond
	probeReps  = 5
)

// timeOp reports the median nanoseconds per call of op over probeReps
// batches, each sized to last about probeBatch.
func timeOp(op func()) float64 {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if d := time.Since(t); d >= probeBatch/4 || n >= 1<<24 {
			n = max(1, int(float64(n)*float64(probeBatch)/float64(max(d, time.Microsecond))))
			break
		}
		n *= 4
	}
	per := make([]float64, probeReps)
	for r := range per {
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[r] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return Median(per)
}

// cycle returns a function handing out the sample's events in turn.
func cycle(sample []poolEvent) func() *event.Event {
	i := 0
	return func() *event.Event {
		e := sample[i].e
		if i++; i == len(sample) {
			i = 0
		}
		return e
	}
}

func runProbes(sp spec, population []subSpec, sample []poolEvent, opts Options) map[string]float64 {
	out := map[string]float64{}
	probeEvent(out, sample)
	probeMatchers(out, population, sample)
	probeBus(out, sample)
	if sp.local {
		return out
	}
	probeWire(out, sample)
	probeProxy(out, sample)
	probeReliable(out)
	probeTransport(out)
	if sp.durable {
		probeStore(out, sample, opts.OutDir)
	}
	return out
}

func probeEvent(out map[string]float64, sample []poolEvent) {
	next := cycle(sample)
	out["event.build_ns"] = timeOp(func() {
		src := next()
		e := event.Acquire()
		for i, n := 0, src.Len(); i < n; i++ {
			name, v := src.At(i)
			e.Set(name, v)
		}
		e.Release()
	})
}

func probeWire(out map[string]float64, sample []poolEvent) {
	const batch = 16
	next := cycle(sample)
	var buf []byte
	out["wire.encode_ns"] = timeOp(func() { buf = wire.AppendEvent(buf[:0], next()) })

	var bytes int
	raws := make([][]byte, len(sample))
	for i, pe := range sample {
		bytes += wire.EventSize(pe.e)
		pkt := wire.Packet{Type: wire.PktEvent, Sender: ident.New(pubAddr), Seq: uint64(i + 1), Payload: wire.EncodeEvent(pe.e)}
		raws[i], _ = pkt.MarshalBytes() // a generated event is far below MaxPayload
	}
	out["wire.event_bytes"] = float64(bytes) / float64(len(sample))

	pool := wire.NewPacketPool()
	i := 0
	out["wire.decode_ns"] = timeOp(func() {
		p, err := pool.Unmarshal(raws[i])
		if i++; i == len(raws) {
			i = 0
		}
		if err != nil {
			return
		}
		e := event.Acquire()
		_ = wire.DecodeEventInto(e, p) // the packet was encoded two lines up
		e.Release()
		p.Release()
	})

	out["wire.batch_pack_ns_per_event"] = timeOp(func() {
		buf = wire.AppendBatchHeader(buf[:0])
		for k := 0; k < batch; k++ {
			buf = wire.AppendBatchEvent(buf, next())
		}
	}) / batch

	payload := wire.AppendBatchHeader(nil)
	for k := 0; k < batch; k++ {
		payload = wire.AppendBatchEvent(payload, next())
	}
	bp := wire.Packet{Type: wire.PktEvent, Flags: wire.FlagBatch, Sender: ident.New(pubAddr), Seq: 1, Payload: payload}
	rawBatch, _ := bp.MarshalBytes()
	out["wire.batch_unpack_ns_per_event"] = timeOp(func() {
		p, err := pool.Unmarshal(rawBatch)
		if err != nil {
			return
		}
		if r, err := wire.NewBatchReader(p.Payload); err == nil {
			for r.More() {
				frame, err := r.Next()
				if err != nil {
					break
				}
				e := event.Acquire()
				_ = wire.DecodeBatchFrameInto(e, frame, p)
				e.Release()
			}
		}
		p.Release()
	}) / batch
}

// probeMatchers times a match on each engine over the workload's own
// table, and a subscribe on the fast engine at full table size.
func probeMatchers(out map[string]float64, population []subSpec, sample []poolEvent) {
	for _, kind := range []matcher.Kind{matcher.KindFast, matcher.KindSiena, matcher.KindTyped} {
		m, err := matcher.New(kind)
		if err != nil {
			continue
		}
		for si, s := range population {
			for _, f := range s.filters {
				_ = m.Subscribe(ident.New(subAddr+uint64(si)), f) // generated filters are valid and typed
			}
		}
		sm, ok := m.(matcher.ScratchMatcher)
		if !ok {
			continue
		}
		next, sc := cycle(sample), matcher.NewScratch()
		var dst []ident.ID
		out["matcher."+string(kind)+".match_ns"] = timeOp(func() { dst = sm.MatchAppendScratch(next(), dst[:0], sc) })

		if kind == matcher.KindFast {
			const extra = 64
			who := ident.New(subAddr + 0xfff)
			fs := neverMatching(1<<20, extra)
			per := make([]float64, probeReps)
			for r := range per {
				t := time.Now()
				for _, f := range fs {
					_ = m.Subscribe(who, f)
				}
				per[r] = float64(time.Since(t).Microseconds()) / extra
				m.UnsubscribeAll(who)
			}
			out["matcher.fast.subscribe_us"] = Median(per)
		}
	}
}

// probeBus times Local.Publish → handler on a bus with one
// subscription and a fan-out of one: the dispatch cost with the
// matcher and the table taken out.
func probeBus(out map[string]float64, sample []poolEvent) {
	sw := transport.NewSwitch()
	defer sw.Close()
	tr, err := sw.Attach(ident.New(busAddr))
	if err != nil {
		return
	}
	m, err := matcher.New(matcher.KindFast)
	if err != nil {
		return
	}
	b := bus.New(reliable.New(tr, reliable.Config{}), m, bootstrap.NewRegistry())
	b.Start()
	defer b.Close()
	var got atomic.Uint64
	if err := b.Local("probe-sub").Subscribe(event.NewFilter(), func(*event.Event) { got.Add(1) }); err != nil {
		return
	}
	pub, next := b.Local("probe-pub"), cycle(sample)
	const chunk = 1024 // well inside the shard queue
	var sent uint64
	out["bus.local_publish_ns"] = timeOp(func() {
		for k := 0; k < chunk; k++ {
			if pub.Publish(next()) == nil {
				sent++
			}
		}
		for got.Load() < sent {
			runtime.Gosched() // the handler runs on the shard worker
		}
	}) / chunk
}

// countingSender is the stub Sender of the proxy probe.
type countingSender struct{ sent atomic.Uint64 }

func (c *countingSender) Send(ident.ID, wire.PacketType, []byte) error {
	c.sent.Add(1)
	return nil
}

// probeProxy times Enqueue → translate → encode → Send on one proxy
// with a stub sender, in chunks that fit its queue.
func probeProxy(out map[string]float64, sample []poolEvent) {
	var snd countingSender
	px := proxy.New(ident.New(subAddr), &proxy.GenericDevice{}, &snd, nil, proxy.DefaultConfig())
	px.Start()
	defer px.Purge()
	next := cycle(sample)
	const chunk = 256
	var enq uint64
	out["proxy.enqueue_deliver_ns"] = timeOp(func() {
		for k := 0; k < chunk; k++ {
			px.Enqueue(next())
		}
		enq += chunk
		for snd.sent.Load() < enq {
			runtime.Gosched() // the delivery loop is the proxy's own goroutine
		}
	}) / chunk
}

// probeReliable times the acknowledged hop over a Switch pair: 16
// pipelined sends (cost per send) and one at a time (round trip).
func probeReliable(out map[string]float64) {
	sw := transport.NewSwitch()
	defer sw.Close()
	ta, errA := sw.Attach(ident.New(1))
	tb, errB := sw.Attach(ident.New(2))
	if errA != nil || errB != nil {
		return
	}
	a, b := reliable.New(ta, reliable.Config{}), reliable.New(tb, reliable.Config{})
	defer a.Close()
	defer b.Close()
	go func() {
		for {
			p, err := b.Recv()
			if err != nil {
				return
			}
			p.Release()
		}
	}()
	payload := make([]byte, 120) // about one encoded reading
	const depth = 16
	var inflight [depth]*reliable.Completion
	slot := 0
	out["reliable.send_ack_ns"] = timeOp(func() {
		if c := inflight[slot]; c != nil {
			_ = c.Wait() // a loss-free switch: the outcome is not in doubt
			c.Recycle()
		}
		inflight[slot] = a.SendAsync(b.LocalID(), wire.PktData, payload)
		slot = (slot + 1) % depth
	})
	for _, c := range inflight {
		if c != nil {
			_ = c.Wait()
			c.Recycle()
		}
	}
	out["reliable.rtt_us"] = timeOp(func() { _ = a.Send(b.LocalID(), wire.PktData, payload) }) / 1e3
}

// probeTransport times send+receive of one datagram on the in-memory
// switch and — informational, it measures the host — on loopback UDP,
// single and in sendmmsg/recvmmsg batches of 16.
func probeTransport(out map[string]float64) {
	data := make([]byte, 150)
	sw := transport.NewSwitch()
	defer sw.Close()
	ma, errA := sw.Attach(ident.New(1))
	mb, errB := sw.Attach(ident.New(2))
	if errA == nil && errB == nil {
		out["transport.mem.sendrecv_ns"] = timeOp(func() {
			if ma.Send(mb.LocalID(), data) == nil {
				if dg, err := mb.Recv(); err == nil {
					dg.Recycle()
				}
			}
		})
	}

	ua, errA := transport.NewUDPTransport()
	if errA != nil {
		return
	}
	defer ua.Close()
	ub, errB := transport.NewUDPTransport()
	if errB != nil {
		return
	}
	defer ub.Close()
	ok := true
	recv := func() {
		dg, err := ub.RecvTimeout(200 * time.Millisecond)
		if err != nil {
			ok = false
			return
		}
		dg.Recycle()
	}
	single := timeOp(func() {
		if ok && ua.Send(ub.LocalID(), data) == nil {
			recv()
		}
	})
	const batch = 16
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = data
	}
	batched := timeOp(func() {
		if ok && ua.SendBatch(ub.LocalID(), bufs) == nil {
			for k := 0; k < batch && ok; k++ {
				recv()
			}
		}
	}) / batch
	if ok {
		out["transport.udp.sendrecv_ns"] = single
		out["transport.udp.batch_sendrecv_ns_per_dgram"] = batched
	}
}

// probeStore times the log alone, configured as the workload's cell
// configures it: append, the walker's replay step, and recovery of a
// cleanly closed 200 000-record directory.
func probeStore(out map[string]float64, sample []poolEvent, outDir string) {
	dir, err := os.MkdirTemp(outDir, "probe-store-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	cfg := store.Config{Dir: filepath.Join(dir, "log"), SyncEvery: 64, SyncInterval: 5 * time.Millisecond, MaxBytes: 64 << 20}
	if err := os.Mkdir(cfg.Dir, 0o755); err != nil {
		return
	}
	l, err := store.Open(cfg)
	if err != nil {
		return
	}
	next := cycle(sample)
	out["store.append_ns"] = timeOp(func() { l.Append(next(), 0, false) })

	cursor := uint64(0)
	out["store.replay_ns"] = timeOp(func() {
		rec, ok := l.Next(cursor + 1)
		if !ok {
			cursor = 0 // wrap: replay the retained window again
			return
		}
		e := event.Acquire()
		if bound, err := wire.DecodeEventBacked(e, rec.Payload, rec.Seg()); err != nil || !bound {
			rec.Release()
		}
		cursor = rec.Cursor
		e.Release()
	})
	_ = l.Close()

	const records = 200000
	rdir := filepath.Join(dir, "recover")
	if err := os.Mkdir(rdir, 0o755); err != nil {
		return
	}
	rcfg := store.Config{Dir: rdir, MaxBytes: 64 << 20}
	if l, err = store.Open(rcfg); err != nil {
		return
	}
	for i := 0; i < records; i++ {
		l.Append(next(), 0, false)
	}
	if err := l.Close(); err != nil {
		return
	}
	per := make([]float64, 3)
	for r := range per {
		t := time.Now()
		l, err := store.Open(rcfg)
		if err != nil {
			return
		}
		per[r] = time.Since(t).Seconds()
		_ = l.Close()
	}
	sort.Float64s(per)
	out["store.recover_s"] = per[1]
}
