package bench

import (
	"fmt"
	"time"

	"github.com/amuse/smc/internal/bootstrap"
	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
)

// Event shape used by the measurement workloads: one "bench" event
// carrying an opaque payload, mirroring the paper's variable-size
// messages.
const (
	benchType    = "bench"
	payloadAttr  = "payload"
	benchBusAddr = 0xB100
)

func init() {
	// Pre-intern the measurement vocabulary so the receive path decodes
	// bench events allocation-free from the first packet — the same
	// one-liner a real deployment with a known event schema would use.
	event.Intern(benchType, payloadAttr)
}

// relConfig is tuned for the simulated wireless profiles: short
// retries, generous budget. window ≤ 0 keeps the reliable default.
func relConfig(window int) reliable.Config {
	return reliable.Config{
		RetryTimeout:    60 * time.Millisecond,
		MaxRetryTimeout: 400 * time.Millisecond,
		MaxRetries:      12,
		Window:          window,
		QueueDepth:      8192,
	}
}

// Env is one benchmark deployment: a bus of the given flavour on a
// simulated link, one publisher and N subscribers, all admitted as
// members (discovery is exercised elsewhere; measurement uses direct
// admission so that only the publish path is timed).
type Env struct {
	Flavor Flavor
	Net    *netsim.Network
	Bus    *bus.Bus
	Pub    *client.Client
	Subs   []*client.Client
}

// EnvConfig parameterises NewEnv.
type EnvConfig struct {
	Link        netsim.Profile
	Subscribers int
	Quench      bool
	Seed        int64
	// Shards overrides the bus pipeline shard count (0 = bus default,
	// GOMAXPROCS).
	Shards int
	// Window overrides the reliable channel's sliding window on every
	// hop (0 = reliable default; 1 = stop-and-wait). The window-sweep
	// benchmarks use it to measure the ARQ pipelining gain end to end.
	Window int
	// SubscribeAll: when false, subscribers are members but install
	// no filters (the quench workload).
	NoSubscriptions bool
	// BatchEvents tunes wire-level event coalescing. Zero is the
	// product default: the bus proxies coalesce whatever is already
	// queued (up to 16 events per packet, never waiting) and publishes
	// travel one per packet. 1 turns proxy coalescing off — the
	// baseline of the window and batching ablations. > 1 caps the
	// proxies' batches at BatchEvents frames and makes the publisher's
	// client batch its publishes the same way.
	BatchEvents int
	// BatchFlush is the flush-on-deadline for partial batches (0: the
	// proxies never wait, the publish batcher waits its default 1ms).
	BatchFlush time.Duration
}

// NewEnv builds the deployment. Close it when done.
func NewEnv(flavor Flavor, cfg EnvConfig) (*Env, error) {
	if cfg.Subscribers <= 0 {
		cfg.Subscribers = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	net := netsim.New(cfg.Link, netsim.WithSeed(cfg.Seed))

	busTr, err := net.Attach(ident.New(benchBusAddr))
	if err != nil {
		net.Close()
		return nil, err
	}
	m, err := matcher.New(flavor.Matcher)
	if err != nil {
		net.Close()
		return nil, err
	}
	if flavor.Cost != (Cost{}) {
		m = costMatcher{Matcher: m, cost: flavor.Cost}
	}
	opts := []bus.Option{bus.WithQueueDepth(8192)}
	if cfg.Quench {
		opts = append(opts, bus.WithQuench(true))
	}
	if cfg.Shards > 0 {
		opts = append(opts, bus.WithShards(cfg.Shards))
	}
	if cfg.BatchEvents > 0 || cfg.BatchFlush > 0 {
		opts = append(opts, bus.WithBatching(cfg.BatchEvents, cfg.BatchFlush))
	}
	b := bus.New(reliable.New(busTr, relConfig(cfg.Window)), m, bootstrap.NewRegistry(), opts...)
	b.Start()

	env := &Env{Flavor: flavor, Net: net, Bus: b}

	mkClient := func(addr uint64, name string) (*client.Client, error) {
		tr, err := net.Attach(ident.New(addr))
		if err != nil {
			return nil, err
		}
		if err := b.AddMember(ident.New(addr), "generic", name); err != nil {
			return nil, err
		}
		var copts []client.Option
		if cfg.BatchEvents > 1 {
			copts = append(copts, client.WithPublishBatching(cfg.BatchEvents, cfg.BatchFlush))
		}
		return client.New(reliable.New(tr, relConfig(cfg.Window)), b.ID(), copts...), nil
	}

	env.Pub, err = mkClient(0x1, "publisher")
	if err != nil {
		env.Close()
		return nil, err
	}
	for i := 0; i < cfg.Subscribers; i++ {
		sub, err := mkClient(uint64(0x100+i), fmt.Sprintf("subscriber-%d", i))
		if err != nil {
			env.Close()
			return nil, err
		}
		if !cfg.NoSubscriptions {
			if err := sub.Subscribe(event.NewFilter().WhereType(benchType)); err != nil {
				env.Close()
				return nil, err
			}
		}
		env.Subs = append(env.Subs, sub)
	}
	return env, nil
}

// Close tears the deployment down.
func (e *Env) Close() {
	if e.Pub != nil {
		e.Pub.Close()
	}
	for _, s := range e.Subs {
		s.Close()
	}
	if e.Bus != nil {
		e.Bus.Close()
	}
	if e.Net != nil {
		e.Net.Close()
	}
}

// StreamAsync pushes count events through the pipelined publish path
// (client.PublishAsync, up to inflight outstanding) and waits until
// the first subscriber has received them all, returning events/sec
// end to end: member enqueue → remote deliver.
func (e *Env) StreamAsync(payload, count, inflight int, timeout time.Duration) (float64, error) {
	if inflight <= 0 {
		inflight = 4
	}
	sub := e.Subs[0]
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		// One reusable event: PublishAsync encodes synchronously, so
		// the same event (and payload backing) serves every send —
		// the publisher side of the zero-alloc pipeline.
		src := benchEvent(payload)
		var pending []*reliable.Completion
		for i := 0; i < count; i++ {
			comp, err := e.Pub.PublishAsync(src)
			if err != nil {
				errc <- fmt.Errorf("publish %d: %w", i, err)
				return
			}
			pending = append(pending, comp)
			if len(pending) >= inflight {
				if err := pending[0].Wait(); err != nil {
					errc <- fmt.Errorf("ack %d: %w", i, err)
					return
				}
				pending[0].Recycle()
				pending = pending[1:]
			}
		}
		for _, c := range pending {
			if err := c.Wait(); err != nil {
				errc <- fmt.Errorf("drain ack: %w", err)
				return
			}
			c.Recycle()
		}
		errc <- nil
	}()
	for recvd := 0; recvd < count; recvd++ {
		e, err := sub.NextEvent(timeout)
		if err != nil {
			return 0, fmt.Errorf("receive %d: %w", recvd, err)
		}
		e.Release() // recycle the borrowing decode and its packet
	}
	if err := <-errc; err != nil {
		return 0, err
	}
	return float64(count) / time.Since(start).Seconds(), nil
}

// benchEvent builds a bench event with an opaque payload of n bytes.
func benchEvent(n int) *event.Event {
	return event.NewTyped(benchType).SetBytes(payloadAttr, make([]byte, n))
}

// PublishAndWait publishes one event with the given payload size and
// blocks until every subscriber has received it, returning the elapsed
// end-to-end response time — Figure 4(a)'s measurand.
func (e *Env) PublishAndWait(payload int, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	if err := e.Pub.Publish(benchEvent(payload)); err != nil {
		return 0, fmt.Errorf("publish: %w", err)
	}
	for _, s := range e.Subs {
		ev, err := s.NextEvent(timeout)
		if err != nil {
			return 0, fmt.Errorf("subscriber wait: %w", err)
		}
		ev.Release()
	}
	return time.Since(start), nil
}

// Throughput streams events of the given payload size for roughly the
// given duration with a small application-level window (the publisher
// keeps at most `window` events in flight), and returns the payload
// throughput observed at the first subscriber in bytes/second —
// Figure 4(b)'s measurand.
func (e *Env) Throughput(payload int, duration time.Duration, window int) (float64, int, error) {
	if window <= 0 {
		window = 4
	}
	sub := e.Subs[0]
	var (
		sent, recvd int
		start       = time.Now()
	)
	for time.Since(start) < duration {
		for sent-recvd < window && time.Since(start) < duration {
			if err := e.Pub.Publish(benchEvent(payload)); err != nil {
				return 0, recvd, fmt.Errorf("publish %d: %w", sent, err)
			}
			sent++
		}
		if sent == recvd {
			continue
		}
		ev, err := sub.NextEvent(10 * time.Second)
		if err != nil {
			return 0, recvd, fmt.Errorf("receive %d: %w", recvd, err)
		}
		ev.Release()
		recvd++
	}
	// Drain what is still in flight so the numbers are exact.
	for recvd < sent {
		ev, err := sub.NextEvent(10 * time.Second)
		if err != nil {
			return 0, recvd, fmt.Errorf("drain %d: %w", recvd, err)
		}
		ev.Release()
		recvd++
	}
	elapsed := time.Since(start)
	bytesDelivered := float64(recvd) * float64(payload)
	return bytesDelivered / elapsed.Seconds(), recvd, nil
}
