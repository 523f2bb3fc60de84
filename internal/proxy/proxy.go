// Package proxy implements the proxy architecture of §III-B: every
// service granted membership of the SMC is represented inside the core
// by a dedicated proxy object that
//
//   - translates between the device's native data format and fully
//     fledged event objects (complex proxies for simple sensors, simple
//     proxies for complex sensors);
//   - queues outgoing events, preserving the ordering constraint, and
//     resends events unacknowledged by the device;
//   - destroys itself — discarding any outbound data awaiting delivery
//     — when the service permanently leaves the SMC (Purge Member).
//
// A proxy is "an abstract class containing generic code applicable to
// all SMC services, completed by a concrete class containing
// implementation details specific to the device/service type": here the
// generic part is the Proxy struct and the concrete part is the Device
// interface.
package proxy

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/wire"
)

// Sender is the slice of the reliable channel a proxy needs.
// Implementations must not retain payload after Send returns: the
// proxy recycles encode buffers through a pool, so a Sender that
// queues the slice for asynchronous transmission must copy it first
// (the in-repo reliable.Channel marshals into its own buffer before
// Send/SendAsync return, satisfying this trivially).
type Sender interface {
	Send(dst ident.ID, ptype wire.PacketType, payload []byte) error
}

// AsyncSender is implemented by senders that can pipeline: SendAsync
// enqueues the packet (copying the payload before returning) and
// resolves the completion when it is acknowledged or fails. A proxy
// whose sender implements AsyncSender keeps up to Config.Pipeline
// deliveries in flight instead of waiting out one network round trip
// per queued event — the member-enqueue half of the sliding-window
// pipeline — and coalesces runs of queued deliveries of one packet type
// into pre-framed batches (wire.FlagBatch payloads) sent through
// SendBatchAsync: one reliable packet, one acknowledgement, one network
// crossing for the whole run. reliable.Channel is the canonical
// implementation; a plain Sender delivers one event at a time (see
// serialSender).
type AsyncSender interface {
	Sender
	SendAsync(dst ident.ID, ptype wire.PacketType, payload []byte) *reliable.Completion
	SendBatchAsync(dst ident.ID, ptype wire.PacketType, payload []byte) *reliable.Completion
}

// Publisher lets a proxy inject translated device data into the bus.
type Publisher func(e *event.Event) error

// Device is the concrete half of a proxy: the device-type-specific
// translation logic. Implementations must be safe for use from the
// proxy's goroutines. TranslateOut must treat the event as read-only:
// the bus delivers one shared event to every subscriber's proxy
// (zero-copy dispatch).
type Device interface {
	// DeviceType names the device class this translator serves.
	DeviceType() string
	// TranslateIn converts raw device bytes (a PktData payload) into
	// zero or more events to publish on the device's behalf.
	TranslateIn(data []byte) ([]*event.Event, error)
	// TranslateOut converts an outbound event into the device's
	// native bytes. ok=false means no translation: the proxy forwards
	// the encoded event itself (simple proxy for a complex service).
	TranslateOut(e *event.Event) (data []byte, ok bool, err error)
	// InitialSubscriptions returns filters the proxy installs on
	// behalf of the device at creation ("the proxy itself might carry
	// enough knowledge to register for appropriate events on behalf
	// of the device", §III-B).
	InitialSubscriptions() []*event.Filter
}

// GenericDevice is the pass-through Device: no translation either way
// and no implicit subscriptions — a "mere forwarding mechanism between
// the services".
type GenericDevice struct {
	Type string
}

var _ Device = (*GenericDevice)(nil)

// DeviceType implements Device.
func (g *GenericDevice) DeviceType() string {
	if g.Type == "" {
		return "generic"
	}
	return g.Type
}

// TranslateIn implements Device: raw data is decoded as a wire event.
func (g *GenericDevice) TranslateIn(data []byte) ([]*event.Event, error) {
	e, err := wire.DecodeEvent(data)
	if err != nil {
		return nil, fmt.Errorf("generic translate-in: %w", err)
	}
	return []*event.Event{e}, nil
}

// TranslateOut implements Device: no translation.
func (g *GenericDevice) TranslateOut(*event.Event) ([]byte, bool, error) {
	return nil, false, nil
}

// InitialSubscriptions implements Device.
func (g *GenericDevice) InitialSubscriptions() []*event.Filter { return nil }

// Config tunes proxy queueing and redelivery.
type Config struct {
	// QueueCap bounds the outbound queue (bounded memory on the
	// target platform); enqueueing beyond it drops the oldest event.
	// With a pipelining sender up to Pipeline further events are in
	// flight outside this queue, so total buffering is QueueCap+Pipeline.
	QueueCap int
	// RedeliveryInterval is the pause between delivery attempts after
	// the reliable layer gave up, while the member is still in the
	// cell (§VI: "queueing and repeating attempts to deliver events
	// to services which are unavailable, but have not yet been
	// declared to have left the SMC").
	RedeliveryInterval time.Duration
	// Pipeline bounds how many deliveries the proxy keeps in flight
	// (default 8). A plain Sender — one that does not implement
	// AsyncSender — always runs with Pipeline and BatchEvents at 1.
	Pipeline int
	// BatchEvents caps how many consecutive queued deliveries of one
	// packet type (live events, or durable deliveries) the pipelined
	// loop coalesces into one batch packet. Zero means the default (16);
	// 1 turns coalescing off. A run of one is always sent as the plain
	// single-delivery packet, so an idle proxy's traffic is
	// byte-identical with or without coalescing.
	BatchEvents int
	// BatchBytes caps a batch payload's size in bytes; a frame that
	// would push the batch past it flushes first. Zero means 8 KiB.
	BatchBytes int
	// FlushDelay is how long a partially filled batch waits for more
	// queued events once the queue runs dry. Zero — the default — never
	// waits: the run gathered from what was already queued goes out at
	// once, so coalescing costs no latency and only a busy proxy
	// batches. A positive delay trades latency for fuller batches
	// (flush on deadline).
	FlushDelay time.Duration
}

// DefaultConfig returns the default proxy tuning.
func DefaultConfig() Config {
	return Config{
		QueueCap:           512,
		RedeliveryInterval: 250 * time.Millisecond,
		Pipeline:           8,
		BatchEvents:        16,
		BatchBytes:         8 << 10,
	}
}

// Stats counts proxy activity. Delivered counts acknowledged events
// whether they travelled alone or inside a batch; Batches counts batch
// transmissions and BatchedEvents the events coalesced into them.
type Stats struct {
	Enqueued         uint64
	Delivered        uint64
	Redeliveries     uint64
	DroppedOldest    uint64
	DiscardedOnPurge uint64
	TranslatedIn     uint64
	TranslatedOut    uint64
	Batches          uint64
	BatchedEvents    uint64
}

// Proxy is the generic proxy: outbound FIFO queue, delivery worker,
// inbound translation.
type Proxy struct {
	member ident.ID
	dev    Device
	sender AsyncSender
	pub    Publisher
	cfg    Config

	mu sync.Mutex
	// queue[head:] awaits delivery. A pop advances head; the slack it
	// leaves is reused (compacted) before the slice would grow, so a
	// queue in steady state keeps one backing array and never allocates.
	queue   []queued
	head    int
	stats   Stats
	stopped bool
	inSeq   uint64 // per-member seq for translated device data

	// Batch-gathering state, owned exclusively by the delivery worker
	// goroutine: a one-slot holdover for the item that forced a flush
	// (a different packet type, or a frame that would overflow
	// BatchBytes) and the reusable frame-gathering scratch.
	held         outItem
	hasHeld      bool
	batchScratch []outItem

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// New builds a proxy for member using the given concrete device logic.
// Start must be called before events are delivered.
func New(member ident.ID, dev Device, sender Sender, pub Publisher, cfg Config) *Proxy {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultConfig().QueueCap
	}
	if cfg.RedeliveryInterval <= 0 {
		cfg.RedeliveryInterval = DefaultConfig().RedeliveryInterval
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = DefaultConfig().Pipeline
	}
	if cfg.BatchEvents <= 0 {
		cfg.BatchEvents = DefaultConfig().BatchEvents
	}
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = DefaultConfig().BatchBytes
	}
	as, ok := sender.(AsyncSender)
	if !ok {
		as = serialSender{sender}
		cfg.Pipeline, cfg.BatchEvents = 1, 1
	}
	p := &Proxy{
		member: member,
		dev:    dev,
		sender: as,
		pub:    pub,
		cfg:    cfg,
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	return p
}

// InitialSubscriptions exposes the device's implicit filters.
func (p *Proxy) InitialSubscriptions() []*event.Filter {
	return p.dev.InitialSubscriptions()
}

// Start launches the delivery worker.
func (p *Proxy) Start() { go p.deliverLoopAsync() }

// serialSender runs a plain Sender inside deliverLoopAsync: each Send
// completes before SendAsync returns, so with Pipeline and BatchEvents
// at 1 the loop delivers one event per Send, one at a time, and never
// hands the Sender a batch.
type serialSender struct{ Sender }

func (s serialSender) SendAsync(dst ident.ID, ptype wire.PacketType, payload []byte) *reliable.Completion {
	c := reliable.NewCompletion()
	c.Resolve(s.Send(dst, ptype, payload))
	return c
}

// SendBatchAsync is never called: BatchEvents is 1.
func (s serialSender) SendBatchAsync(dst ident.ID, ptype wire.PacketType, payload []byte) *reliable.Completion {
	return s.SendAsync(dst, ptype, payload)
}

// queued is one outbound queue item: the event and, for a durable
// delivery, its log cursor (0 for a live event).
type queued struct {
	e      *event.Event
	cursor uint64
}

// Enqueue appends an outbound live event to the FIFO queue. The event
// may be shared with other subscribers' proxies and must not be mutated
// (the bus dispatches one immutable event to every match); the proxy
// takes its own reference for pool-managed events and releases it once
// the event has been translated for the wire (or dropped). When the
// queue is full the oldest event is dropped (bounded memory); this is
// counted in Stats.DroppedOldest.
func (p *Proxy) Enqueue(e *event.Event) { p.EnqueueAt(e, 0) }

// EnqueueAt is Enqueue for a durable delivery: the event goes out as a
// PktEventDurable framed with cursor, skipping device translation. The
// cursor travels with the queue item, not on the event, which may be
// shared with live recipients. A zero cursor is a live event.
func (p *Proxy) EnqueueAt(e *event.Event, cursor uint64) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	e.Retain()
	if len(p.queue)-p.head >= p.cfg.QueueCap {
		p.popLocked().e.Release()
		p.stats.DroppedOldest++
	}
	if len(p.queue) == cap(p.queue) && p.head >= len(p.queue)/2 {
		n := copy(p.queue, p.queue[p.head:])
		clear(p.queue[n:])
		p.queue, p.head = p.queue[:n], 0
	}
	p.queue = append(p.queue, queued{e, cursor})
	p.stats.Enqueued++
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// QueueLen reports the number of events awaiting delivery.
func (p *Proxy) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue) - p.head
}

// popLocked removes the head of a non-empty queue. Caller holds p.mu.
func (p *Proxy) popLocked() queued {
	q := p.queue[p.head]
	p.queue[p.head] = queued{}
	p.head++
	if p.head == len(p.queue) {
		p.queue, p.head = p.queue[:0], 0
	}
	return q
}

// Stats returns a snapshot of the counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// HandleInbound translates raw device bytes and publishes the resulting
// events on the member's behalf ("Incoming data from devices are also
// sent to the proxy, to perform pre-processing of that data into fully
// fledged data objects", §III-B).
func (p *Proxy) HandleInbound(data []byte) error {
	events, err := p.dev.TranslateIn(data)
	if err != nil {
		return fmt.Errorf("proxy %s translate-in: %w", p.member, err)
	}
	p.mu.Lock()
	p.stats.TranslatedIn += uint64(len(events))
	p.mu.Unlock()
	for _, e := range events {
		e.Sender = p.member
		p.mu.Lock()
		p.inSeq++
		e.Seq = p.inSeq
		p.mu.Unlock()
		if err := p.pub(e); err != nil {
			return fmt.Errorf("proxy %s publish: %w", p.member, err)
		}
	}
	return nil
}

// Purge stops the worker and discards any outbound data awaiting
// delivery — the proxy destroying itself on a Purge Member event.
func (p *Proxy) Purge() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.stats.DiscardedOnPurge += uint64(len(p.queue) - p.head)
	for _, q := range p.queue[p.head:] {
		q.e.Release()
	}
	p.queue, p.head = nil, 0
	p.mu.Unlock()
	close(p.stop)
	<-p.done
}

// outItem is one translated event in the pipelined delivery loop. The
// encoded payload is retained until the send is acknowledged so that a
// redelivery after reliable give-up re-sends byte-identical payload —
// which lets the channel resume the original sequence number and the
// receiver suppress the duplicate if the first copy did arrive.
type outItem struct {
	ptype   wire.PacketType
	payload []byte
	bufp    *[]byte // pooled event-encode buffer; nil for device-native data
	comp    *reliable.Completion
	batched bool // payload is a framed batch of ptype; send via SendBatchAsync
	events  int  // events inside a batch payload (1 otherwise)
}

func (p *Proxy) releaseItem(it outItem) {
	if it.bufp != nil {
		wire.PutEncodeBuf(it.bufp)
	}
}

// translateOut converts one queued event into its wire form, releasing
// the proxy's reference on the event once the payload is built.
// ok=false means the event is dropped (device-specific translation
// failure).
func (p *Proxy) translateOut(q queued) (outItem, bool) {
	e := q.e
	defer e.Release()
	if q.cursor != 0 {
		// Durable delivery: frame the cursor over the frozen event
		// encoding and skip device translation — durable consumers are
		// event-stream clients, and the cursor must survive to the
		// receiver for resume/dedup.
		bp := wire.GetEncodeBuf()
		payload := wire.AppendDurableEvent((*bp)[:0], q.cursor, e)
		*bp = payload
		return outItem{ptype: wire.PktEventDurable, payload: payload, bufp: bp, events: 1}, true
	}
	raw, ok, err := p.dev.TranslateOut(e)
	switch {
	case err != nil:
		return outItem{}, false
	case ok:
		p.mu.Lock()
		p.stats.TranslatedOut++
		p.mu.Unlock()
		return outItem{ptype: wire.PktData, payload: raw, events: 1}, true
	default:
		bp := wire.GetEncodeBuf()
		payload := wire.AppendEvent((*bp)[:0], e)
		*bp = payload
		return outItem{ptype: wire.PktEvent, payload: payload, bufp: bp, events: 1}, true
	}
}

// batchable reports whether deliveries of this packet type may share a
// batch packet: live events and durable deliveries do (each with its
// own kind only); device-native data never does.
func batchable(t wire.PacketType) bool {
	return t == wire.PktEvent || t == wire.PktEventDurable
}

// gatherBatch builds the next delivery for the pipelined loop: the run
// of consecutive same-type deliveries already queued, coalesced into
// one batch payload, or a single item when there is nothing to coalesce
// with. It flushes on size (Config.BatchEvents frames or
// Config.BatchBytes bytes), on FIFO breaks (a delivery of another
// packet type must not overtake the run queued before it, so it flushes
// the run and is held over for the next call), and when the queue runs
// dry — at once with the default zero Config.FlushDelay, otherwise after
// waiting at most that long for the queue to refill. ok=false means the
// queue is empty and nothing is pending; the caller waits on wake.
func (p *Proxy) gatherBatch() (outItem, bool) {
	items := p.batchScratch[:0]
	size := wire.BatchHeaderLen
	if p.hasHeld {
		p.hasHeld = false
		if !batchable(p.held.ptype) {
			return p.held, true
		}
		items = append(items, p.held)
		size += wire.BatchFrameSize(len(p.held.payload))
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
gather:
	for len(items) < p.cfg.BatchEvents {
		p.mu.Lock()
		popped := len(p.queue) > p.head
		var q queued
		if popped {
			q = p.popLocked()
		}
		p.mu.Unlock()
		if !popped {
			if len(items) == 0 {
				return outItem{}, false
			}
			if p.cfg.FlushDelay <= 0 {
				break // opportunistic: never wait for a fuller batch
			}
			// Partial batch, empty queue: flush on deadline.
			if timer == nil {
				timer = time.NewTimer(p.cfg.FlushDelay)
			}
			select {
			case <-p.wake:
				continue
			case <-timer.C:
				break gather
			case <-p.stop:
				break gather // outer loop observes stop and releases
			}
		}
		it, ok := p.translateOut(q)
		if !ok {
			continue
		}
		if len(items) == 0 {
			if !batchable(it.ptype) {
				return it, true
			}
		} else if it.ptype != items[0].ptype ||
			size+wire.BatchFrameSize(len(it.payload)) > p.cfg.BatchBytes {
			p.held, p.hasHeld = it, true
			break
		}
		items = append(items, it)
		size += wire.BatchFrameSize(len(it.payload))
	}
	p.batchScratch = items[:0] // keep capacity for the next gather
	return p.flushBatch(items), true
}

// flushBatch turns a gathered run into one delivery. A run of one
// stays a plain single-event send — byte-identical to the unbatched
// path, no framing overhead; longer runs are framed into a fresh batch
// payload of the run's packet type and the per-event encode buffers are
// returned to the pool.
func (p *Proxy) flushBatch(items []outItem) outItem {
	if len(items) == 1 {
		return items[0]
	}
	bp := wire.GetEncodeBuf()
	buf := wire.AppendBatchHeader((*bp)[:0])
	for _, it := range items {
		buf = wire.AppendBatchFrame(buf, it.payload)
		p.releaseItem(it)
	}
	*bp = buf
	p.mu.Lock()
	p.stats.Batches++
	p.stats.BatchedEvents += uint64(len(items))
	p.mu.Unlock()
	return outItem{
		ptype:   items[0].ptype,
		payload: buf,
		bufp:    bp,
		batched: true,
		events:  len(items),
	}
}

// deliverLoopAsync is the windowed delivery worker: it keeps up to
// Config.Pipeline sends — each one gathered run, see gatherBatch — in
// flight on the reliable channel and resolves them in FIFO order. When
// the channel gives up on the member the whole outstanding tail fails
// together (cumulative acks: a later packet cannot be acknowledged
// without its predecessors), so the failed items are re-sent in order
// after the redelivery pause — byte-identical, see outItem.
func (p *Proxy) deliverLoopAsync() {
	defer close(p.done)
	var inflight []outItem // sent, awaiting acknowledgement (FIFO)
	var retry []outItem    // failed, to re-send before new queue work
	releaseAll := func() {
		for _, it := range inflight {
			p.releaseItem(it)
		}
		for _, it := range retry {
			p.releaseItem(it)
		}
		if p.hasHeld {
			p.releaseItem(p.held)
			p.hasHeld = false
		}
	}
	for {
		for len(inflight) < p.cfg.Pipeline {
			var it outItem
			if len(retry) > 0 {
				it = retry[0]
				retry = retry[1:]
				p.mu.Lock()
				p.stats.Redeliveries++
				p.mu.Unlock()
			} else {
				var ok bool
				if it, ok = p.gatherBatch(); !ok {
					break
				}
			}
			if it.batched {
				it.comp = p.sender.SendBatchAsync(p.member, it.ptype, it.payload)
			} else {
				it.comp = p.sender.SendAsync(p.member, it.ptype, it.payload)
			}
			inflight = append(inflight, it)
		}
		if len(inflight) == 0 {
			select {
			case <-p.wake:
				continue
			case <-p.stop:
				releaseAll()
				return
			}
		}
		select {
		case <-inflight[0].comp.Done():
		case <-p.wake:
			continue // new work arrived: top the pipeline up
		case <-p.stop:
			releaseAll()
			return
		}
		head := inflight[0]
		err := head.comp.Err()
		switch {
		case err == nil:
			p.mu.Lock()
			p.stats.Delivered += uint64(head.events)
			p.mu.Unlock()
			p.releaseItem(head)
			head.comp.Recycle() // observed: hand the handle back
			inflight = inflight[1:]
		case errors.Is(err, reliable.ErrClosed):
			releaseAll()
			return
		default:
			// Give-up: collect the whole outstanding tail. Items can
			// only fail as a suffix, so everything resolved here is
			// either already delivered or queued for redelivery.
			var failed []outItem
			for i, it := range inflight {
				select {
				case <-it.comp.Done():
				case <-p.stop:
					inflight = inflight[i:] // not yet released
					releaseAll()
					return
				}
				itErr := it.comp.Err()
				it.comp.Recycle() // observed; retries get a fresh handle
				it.comp = nil
				if itErr == nil {
					p.mu.Lock()
					p.stats.Delivered += uint64(it.events)
					p.mu.Unlock()
					p.releaseItem(it)
					continue
				}
				failed = append(failed, it)
			}
			inflight = nil
			retry = append(failed, retry...)
			timer := time.NewTimer(p.cfg.RedeliveryInterval)
			select {
			case <-p.stop:
				timer.Stop()
				releaseAll()
				return
			case <-timer.C:
			}
		}
	}
}
