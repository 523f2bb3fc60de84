// Package client is the member-side library for talking to an SMC
// event bus: synchronous acknowledged publish (Fig. 3), subscription
// management, and receipt of events pushed by the member's proxy.
//
// It also honours quench/unquench (§VI): while quenched — told by the
// bus that no subscription currently matches — publishes are suppressed
// locally, saving the radio transmission entirely.
package client

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

// ErrQuenched reports a publish suppressed because the bus has quenched
// this publisher.
var ErrQuenched = errors.New("client: quenched by bus")

// Stats counts client activity.
type Stats struct {
	Published        uint64
	QuenchSuppressed uint64
	EventsReceived   uint64
	DataReceived     uint64
	// DataDropped counts raw payloads (counted in DataReceived) shed
	// because the Data() channel was full — drop-newest, like the live
	// inbox.
	DataDropped uint64
	// InboxDropped counts live events decoded (and counted in
	// EventsReceived) but shed because the Events() inbox was full —
	// drop-newest, the bounded memory of the target platform. Durable
	// deliveries block instead and are never counted here.
	InboxDropped uint64
	// DurableReceived counts durable deliveries handed to Events();
	// DurableDeduped counts redeliveries dropped by the cursor floor
	// (splice-boundary duplicates). DurableReceived deliveries are
	// also counted in EventsReceived.
	DurableReceived uint64
	DurableDeduped  uint64
}

// Client is one member service's connection to the bus.
type Client struct {
	ch  *reliable.Channel
	bus ident.ID

	quenched atomic.Bool
	pubSeq   atomic.Uint64

	inbox chan *event.Event
	data  chan []byte
	// liveScratch gathers one inbound packet's decoded live events
	// between decode and inbox hand-off; owned by the receive loop.
	liveScratch []*event.Event

	mu    sync.Mutex
	stats Stats

	// Durable binding (durable.go). durName/durInit are set by the
	// WithDurable option; the epoch and cursor floor are atomics so
	// DurablePosition can snapshot them while the receive loop runs.
	durName  string
	durInit  DurablePosition
	durEpoch atomic.Uint64
	durFloor atomic.Uint64

	batch pubBatcher

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
	closeErr  error
}

// Option configures a Client.
type Option func(*Client)

// WithPublishBatching coalesces Publish/PublishAsync traffic into
// batch packets (wire.FlagBatch): up to maxEvents events or maxBytes
// of payload are framed into one reliable packet, and a partial batch
// is flushed after delay. Each publish still gets its own completion,
// resolved when the batch it rode in is acknowledged. Zero or
// negative arguments fall back to 16 events, 8 KiB, 1ms.
func WithPublishBatching(maxEvents, maxBytes int, delay time.Duration) Option {
	return func(c *Client) {
		if maxEvents <= 1 {
			maxEvents = 16
		}
		if maxBytes <= 0 {
			maxBytes = 8 << 10
		}
		if delay <= 0 {
			delay = time.Millisecond
		}
		c.batch.enabled = true
		c.batch.maxEvents = maxEvents
		c.batch.maxBytes = maxBytes
		c.batch.delay = delay
	}
}

// New wraps a reliable channel (which the client then owns) and the
// bus's service ID, and starts the receive loop.
func New(ch *reliable.Channel, busID ident.ID, opts ...Option) *Client {
	c := &Client{
		ch:    ch,
		bus:   busID,
		inbox: make(chan *event.Event, 256),
		data:  make(chan []byte, 256),
		done:  make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	if c.durName != "" {
		c.sendDurableResume()
	}
	c.wg.Add(1)
	go c.recvLoop()
	return c
}

// ID returns the client's service ID.
func (c *Client) ID() ident.ID { return c.ch.LocalID() }

// Stats returns a snapshot of the counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Quenched reports whether the bus has quenched this publisher.
func (c *Client) Quenched() bool { return c.quenched.Load() }

// Publish sends an event to the bus and blocks until the bus has
// acknowledged it (synchronous call semantics, Fig. 3). While quenched
// it suppresses the send and returns ErrQuenched.
func (c *Client) Publish(e *event.Event) error {
	comp, err := c.PublishAsync(e)
	if err != nil {
		return err
	}
	err = comp.Wait()
	comp.Recycle() // Publish owns the handle
	return err
}

// PublishAsync enqueues an event towards the bus and returns a
// completion that resolves when the bus acknowledges it — the
// pipelined counterpart of Publish, letting a publisher keep up to
// the reliable channel's window in flight instead of paying one round
// trip per event. Events published this way are still delivered to
// the bus in publish order. While quenched the send is suppressed and
// ErrQuenched returned immediately.
func (c *Client) PublishAsync(e *event.Event) (*reliable.Completion, error) {
	if c.quenched.Load() {
		c.mu.Lock()
		c.stats.QuenchSuppressed++
		c.mu.Unlock()
		return nil, ErrQuenched
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if e.Stamp.IsZero() {
		e.Stamp = time.Now()
	}
	e.Sender = c.ch.LocalID()
	e.Seq = c.pubSeq.Add(1)
	if c.batch.enabled {
		comp := c.publishBatched(e)
		c.mu.Lock()
		c.stats.Published++
		c.mu.Unlock()
		return comp, nil
	}
	// Pooled encode: the channel copies the payload before SendAsync
	// returns, so the buffer goes straight back.
	bp := wire.GetEncodeBuf()
	payload := wire.AppendEvent((*bp)[:0], e)
	*bp = payload
	comp := c.ch.SendAsync(c.bus, wire.PktEvent, payload)
	wire.PutEncodeBuf(bp)
	c.mu.Lock()
	c.stats.Published++ // counted at enqueue; failures surface via comp
	c.mu.Unlock()
	return comp, nil
}

// pubBatcher accumulates encoded events between flushes. The payload
// under construction lives in a pooled encode buffer; every batched
// publish holds a detached completion that resolves when the carrying
// batch's own completion does.
type pubBatcher struct {
	enabled   bool
	maxEvents int
	maxBytes  int
	delay     time.Duration

	mu    sync.Mutex
	bp    *[]byte
	comps []*reliable.Completion
	timer *time.Timer
}

// publishBatched frames one event into the pending batch, flushing on
// size; the first event of a fresh batch arms the flush-on-deadline
// timer.
func (c *Client) publishBatched(e *event.Event) *reliable.Completion {
	b := &c.batch
	b.mu.Lock()
	if b.bp == nil {
		b.bp = wire.GetEncodeBuf()
		*b.bp = wire.AppendBatchHeader((*b.bp)[:0])
		if b.timer == nil {
			b.timer = time.AfterFunc(b.delay, c.flush)
		} else {
			b.timer.Reset(b.delay)
		}
	}
	*b.bp = wire.AppendBatchEvent(*b.bp, e)
	comp := reliable.NewCompletion()
	b.comps = append(b.comps, comp)
	if len(b.comps) >= b.maxEvents || len(*b.bp) >= b.maxBytes {
		c.flushLocked()
	}
	b.mu.Unlock()
	return comp
}

// flush sends any pending publish batch immediately. It is a no-op
// when batching is disabled or nothing is pending; raw-data sends and
// subscription changes call it so they cannot overtake events already
// accepted for publish.
func (c *Client) flush() {
	if !c.batch.enabled {
		return
	}
	c.batch.mu.Lock()
	c.flushLocked()
	c.batch.mu.Unlock()
}

// flushLocked hands the pending batch to the reliable channel (which
// copies the payload before returning) and spawns the resolver that
// fans the batch's outcome out to the per-event completions. Caller
// holds batch.mu.
func (c *Client) flushLocked() {
	b := &c.batch
	if b.bp == nil {
		return
	}
	if b.timer != nil {
		b.timer.Stop()
	}
	bp, comps := b.bp, b.comps
	b.bp, b.comps = nil, nil
	bc := c.ch.SendBatchAsync(c.bus, wire.PktEvent, *bp)
	wire.PutEncodeBuf(bp)
	go func() {
		err := bc.Wait()
		bc.Recycle()
		for _, comp := range comps {
			comp.Resolve(err)
		}
	}()
}

// PublishRaw sends raw device bytes for the member's proxy to translate
// (the "simple sensor" path of §III-B).
func (c *Client) PublishRaw(data []byte) error {
	if c.quenched.Load() {
		c.mu.Lock()
		c.stats.QuenchSuppressed++
		c.mu.Unlock()
		return ErrQuenched
	}
	c.flush() // raw data must not overtake batched events
	if err := c.ch.Send(c.bus, wire.PktData, data); err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.Published++
	c.mu.Unlock()
	return nil
}

// PublishRawUnreliable sends raw device bytes without waiting for an
// acknowledgement (wire.FlagNoAck): the periodic-sensor style of
// §III-B — "a temperature sensor may periodically transmit data and
// not require any acknowledgement prior to the next reading". Loss and
// duplication are tolerated by the next reading superseding this one.
func (c *Client) PublishRawUnreliable(data []byte) error {
	if c.quenched.Load() {
		c.mu.Lock()
		c.stats.QuenchSuppressed++
		c.mu.Unlock()
		return ErrQuenched
	}
	c.flush() // keep ordering relative to batched events
	if err := c.ch.SendUnreliable(c.bus, wire.PktData, data); err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.Published++
	c.mu.Unlock()
	return nil
}

// Subscribe installs a content filter at the bus (acknowledged).
func (c *Client) Subscribe(f *event.Filter) error {
	if err := f.Validate(); err != nil {
		return err
	}
	c.flush()
	return c.ch.Send(c.bus, wire.PktSubscribe, wire.EncodeFilter(f))
}

// Unsubscribe removes a previously installed filter.
func (c *Client) Unsubscribe(f *event.Filter) error {
	c.flush()
	return c.ch.Send(c.bus, wire.PktUnsubscribe, wire.EncodeFilter(f))
}

// Events yields events pushed by the bus (via this member's proxy).
// The channel is closed when the client shuts down, so ranging over it
// terminates after Close.
//
// Delivered events are pooled, borrowing decodes: their attribute
// strings alias the inbound packet's buffer, which stays alive exactly
// as long as the event does. Reading attributes is always safe;
// consumers that are done with an event should Release it so the
// event and its packet recycle, and must Clone anything they keep
// past the Release. Consumers that never Release just fall back to
// garbage collection.
func (c *Client) Events() <-chan *event.Event { return c.inbox }

// Data yields raw device bytes pushed by the bus for devices whose
// proxy translates outbound events into a native format.
func (c *Client) Data() <-chan []byte { return c.data }

// NextEvent waits for one delivered event with a deadline.
func (c *Client) NextEvent(d time.Duration) (*event.Event, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case e, ok := <-c.inbox:
		if !ok {
			return nil, reliable.ErrClosed
		}
		return e, nil
	case <-timer.C:
		return nil, transport.ErrTimeout
	case <-c.done:
		return nil, reliable.ErrClosed
	}
}

// Close shuts the client and its channel down.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.flush()
		close(c.done)
		c.closeErr = c.ch.Close()
		c.wg.Wait()
	})
	return c.closeErr
}

func (c *Client) recvLoop() {
	defer c.wg.Done()
	// This loop is the only sender on both consumer channels; closing
	// them on exit lets `for range client.Events()` terminate.
	defer close(c.inbox)
	defer close(c.data)
	for {
		pkt, err := c.ch.Recv()
		if err != nil {
			return
		}
		stop := c.handleInbound(pkt)
		// Drop the receive loop's reference. This is NOT necessarily
		// the last one: the borrowing event decode retains the packet
		// and aliases its payload, so the buffer stays live until the
		// delivered event is released.
		pkt.Release()
		if stop {
			return
		}
	}
}

// handleInbound processes one packet from the bus; it reports true when
// the client is shutting down.
func (c *Client) handleInbound(pkt *wire.Packet) (stop bool) {
	switch pkt.Type {
	case wire.PktEvent:
		return c.handleLive(pkt)
	case wire.PktData:
		cp := make([]byte, len(pkt.Payload))
		copy(cp, pkt.Payload)
		c.mu.Lock()
		c.stats.DataReceived++
		c.mu.Unlock()
		select {
		case c.data <- cp:
		case <-c.done:
			return true
		default:
			c.mu.Lock()
			c.stats.DataDropped++
			c.mu.Unlock()
		}
	case wire.PktEventDurable:
		return c.handleDurable(pkt)
	case wire.PktDurableAck:
		c.handleDurableAck(pkt)
	case wire.PktQuench:
		c.quenched.Store(true)
	case wire.PktUnquench:
		c.quenched.Store(false)
	default:
		// Unknown traffic on the client endpoint: ignore.
	}
	return false
}

// handleLive is the one live delivery loop: every frame the packet
// carries (wire.PacketFrames: its lone payload, or each frame of a
// batch from the member's proxy) decodes — borrowing — into its own
// pooled event holding an independent reference on the shared packet
// (see Events for the consumer contract; origin sender/seq travel
// inside the payload, the packet header identifies only the relaying
// bus). A malformed frame ends the packet; the frames before it are
// delivered. They are counted under one lock per packet, however many
// it carried, then handed to the inbox in order; a full inbox drops
// the new event (counted in Stats.InboxDropped). It reports true when
// the client is shutting down.
func (c *Client) handleLive(pkt *wire.Packet) (stop bool) {
	r, err := wire.PacketFrames(pkt)
	if err != nil {
		return false
	}
	events := c.liveScratch[:0]
	for r.More() {
		frame, err := r.Next()
		if err != nil {
			break
		}
		e := event.Acquire()
		if err := wire.DecodeBatchFrameInto(e, frame, pkt); err != nil {
			e.Release()
			break
		}
		events = append(events, e)
	}
	c.mu.Lock()
	c.stats.EventsReceived += uint64(len(events))
	c.mu.Unlock()
	var dropped uint64
push:
	for i, e := range events {
		select {
		case c.inbox <- e:
		case <-c.done:
			for _, rest := range events[i:] {
				rest.Release()
			}
			stop = true
			break push
		default:
			e.Release()
			dropped++
		}
	}
	if dropped > 0 {
		c.mu.Lock()
		c.stats.InboxDropped += dropped
		c.mu.Unlock()
	}
	clear(events)
	c.liveScratch = events[:0]
	return stop
}
