package client

import (
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/wire"
)

// Durable consumption, client side. A client opened WithDurable binds
// to a named durable consumer on the bus: it announces its last-seen
// position (epoch + cursor) before anything else it sends, and from
// then on the bus feeds it from the durable log — replaying the gap
// first, then live traffic, in one cursor-ordered stream. Delivered
// events carry their log cursor in Event.Cursor.
//
// Exactly-once at the splice is enforced here with a cursor floor: any
// delivery at or below the floor is a redelivery (the bus resumes
// conservatively after a rebind) and is dropped before it reaches
// Events(). The floor starts at the resume cursor, is reset by the
// bus's PktDurableAck when the log epoch changed (stale cursors from a
// previous incarnation are meaningless), and advances to each delivery
// just before it is handed to the inbox.
//
// Durable deliveries are handed to the inbox blocking, not
// drop-newest: at-least-once delivery must not shed events to its own
// inbox, so a slow consumer stalls the receive loop and backpressure
// propagates to the bus walker instead.

// DurablePosition is a durable consumer's resume position: the log
// epoch and the highest cursor handed to Events(). Persist it across
// restarts and pass it back via WithDurable to resume; the zero value
// means "no position" and replays everything retained.
type DurablePosition struct {
	Epoch  uint64
	Cursor uint64
}

// WithDurable binds the client to the named durable consumer, resuming
// after pos. The resume announcement is enqueued before New returns —
// ahead of any Subscribe — so the bus sees the binding before the
// filters.
func WithDurable(name string, pos DurablePosition) Option {
	return func(c *Client) {
		c.durName = name
		c.durInit = pos
	}
}

// DurablePosition snapshots the resume position: persist it and pass
// it to WithDurable on the next session. Epoch zero means the bus has
// not acknowledged the binding yet (or durability is off cell-side).
//
// The cursor is the highest delivery handed to Events() — not
// necessarily consumed. A client that has drained its inbox can resume
// from this directly; one that tears down with deliveries still
// buffered should resume from the Cursor of the last event it actually
// processed, or those buffered events are skipped. Resuming from an
// older cursor is always safe: redeliveries are dropped by the floor.
func (c *Client) DurablePosition() DurablePosition {
	return DurablePosition{Epoch: c.durEpoch.Load(), Cursor: c.durFloor.Load()}
}

// sendDurableResume announces the binding on the reliable stream.
// Called from New before the constructor returns, so it precedes every
// Subscribe/Publish the application can issue.
func (c *Client) sendDurableResume() {
	c.durEpoch.Store(c.durInit.Epoch)
	c.durFloor.Store(c.durInit.Cursor)
	buf := wire.AppendDurableResume(nil, wire.DurableResume{
		Name:   c.durName,
		Epoch:  c.durInit.Epoch,
		Cursor: c.durInit.Cursor,
	})
	comp := c.ch.SendAsync(c.bus, wire.PktDurableResume, buf)
	go func() {
		_ = comp.Wait()
		comp.Recycle()
	}()
}

// handleDurable is the one durable delivery loop: every frame the
// packet carries (wire.PacketFrames: the lone delivery of a plain
// PktEventDurable, or each one of a coalesced run) is an unchanged
// cursor-prefixed delivery and takes the same path in frame order —
// cursor floor, dedup counter, blocking inbox hand-off (see the
// package comment above). It reports true when the client is shutting
// down.
func (c *Client) handleDurable(pkt *wire.Packet) (stop bool) {
	r, err := wire.PacketFrames(pkt)
	if err != nil {
		return false
	}
	for r.More() {
		cursor, frame, err := r.NextDurable()
		if err != nil {
			return false
		}
		floor := c.durFloor.Load()
		if cursor <= floor {
			// Redelivery across the splice/rebind boundary: already seen.
			c.mu.Lock()
			c.stats.DurableDeduped++
			c.mu.Unlock()
			continue
		}
		e := event.Acquire()
		if err := wire.DecodeBatchFrameInto(e, frame, pkt); err != nil {
			e.Release()
			continue
		}
		e.Cursor = cursor
		c.mu.Lock()
		c.stats.EventsReceived++
		c.stats.DurableReceived++
		c.mu.Unlock()
		// The floor moves before the hand-off: once the application
		// holds e, DurablePosition already covers it. A send abandoned
		// at shutdown puts it back, unless something else moved it.
		c.durFloor.Store(cursor)
		select {
		case c.inbox <- e:
		case <-c.done:
			c.durFloor.CompareAndSwap(cursor, floor)
			e.Release()
			return true
		}
	}
	return false
}

// handleDurableAck processes the bus's resume acknowledgement: it
// fixes the live epoch and resets the floor to the bus's resume point
// (on an epoch change the old cursor is meaningless and the bus
// replays from the oldest retained event — the floor must drop with
// it).
func (c *Client) handleDurableAck(pkt *wire.Packet) {
	a, err := wire.DecodeDurableAck(pkt.Payload)
	if err != nil {
		return
	}
	c.durEpoch.Store(a.Epoch)
	c.durFloor.Store(a.From)
}
