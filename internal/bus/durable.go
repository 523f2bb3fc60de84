package bus

import (
	"sort"
	"sync/atomic"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/wire"
)

// Durable subscriptions: at-least-once delivery for roaming members.
//
// A durable consumer is named server-side state — its filters and its
// delivery cursor — that outlives any one member connection. A member
// binds to it with PktDurableResume (sent before its first subscribe);
// the bus replies PktDurableAck (epoch + resume floor) and then feeds
// the member from the event log through a per-consumer walker
// goroutine.
//
// The walker is the whole splice story: durable members' filters are
// NEVER installed in the matcher, so live dispatch never targets them
// and there is no replay/live boundary to race — "caught up with the
// tail" IS live delivery. Because a single walker reads the log in
// cursor order and the proxy queue and reliable stream are FIFO,
// delivery is cursor-monotone per consumer by construction, which is
// what makes "max cursor seen" a safe client-side resume point and the
// cursor floor a safe dedup rule.
//
// Cursors are only comparable within one log incarnation (epoch): a
// resume whose epoch does not match the live log's — including the
// fresh consumer's zero — replays from the oldest retained event, and
// the ack tells the client the floor it must reset to. The ack is
// enqueued on the member's reliable stream before the walker starts,
// so it precedes every delivery.

// WithDurableLog attaches a durable event log to the bus: every
// admitted publish is appended (with publisher dedup), and members may
// bind durable consumers to replay it. The bus owns the log and closes
// it on Close.
func WithDurableLog(l *store.Log) Option {
	return func(b *Bus) { b.log = l }
}

// DurableLog exposes the attached log (nil when durability is off).
func (b *Bus) DurableLog() *store.Log { return b.log }

// walkerRun is one attachment's walker lifetime: closing stop ends it,
// done closes when it has exited. wake is poked (non-blocking) by log
// appends and filter changes.
type walkerRun struct {
	stop chan struct{}
	done chan struct{}
	wake chan struct{}
}

// durableState is one named durable consumer. Filters and the binding
// are guarded by Bus.durMu; delivered is atomic so the walker can
// advance it without taking the lock per record.
type durableState struct {
	name    string
	filters []*event.Filter
	member  ident.ID // bound member (nil ID when detached)
	px      *proxy.Proxy
	run     *walkerRun
	// delivered is the consumer's cursor: the last log position walked
	// past (delivered or filtered out). It is the resume floor echoed
	// in PktDurableAck.
	delivered atomic.Uint64
	// sent counts events actually enqueued to the member's proxy.
	sent atomic.Uint64
}

// durableFor resolves the durable consumer a member is bound to.
func (b *Bus) durableFor(id ident.ID) *durableState {
	b.durMu.Lock()
	defer b.durMu.Unlock()
	return b.durByMember[id]
}

// handleDurableResume binds the sending member to a named durable
// consumer and starts (or restarts) its walker.
func (b *Bus) handleDurableResume(pkt *wire.Packet) {
	ms, ok := b.memberState(pkt.Sender)
	if !ok {
		b.ctl().nonMember.Add(1)
		return
	}
	r, err := wire.DecodeDurableResume(pkt.Payload)
	if err != nil || r.Name == "" {
		b.ctl().badPackets.Add(1)
		return
	}
	if b.log == nil {
		// Durability is not enabled on this cell. Ack with the zero
		// epoch so the client knows to run live-only instead of
		// waiting for replay.
		b.sendDurableAck(ms, pkt.Sender, wire.DurableAck{})
		return
	}
	epoch := b.log.Epoch()
	from := uint64(0)
	if r.Epoch == epoch {
		// Same incarnation: trust the client's cursor. Anything below
		// the retained range is gone regardless; Next skips forward.
		from = r.Cursor
	}

	b.durMu.Lock()
	if b.closed.Load() {
		b.durMu.Unlock()
		return
	}
	ds := b.durables[r.Name]
	if ds == nil {
		ds = &durableState{name: r.Name}
		b.durables[r.Name] = ds
	}
	oldRun := ds.run
	ds.run = nil
	if !ds.member.IsNil() {
		delete(b.durByMember, ds.member)
		ds.member = ident.ID(0)
		ds.px = nil
	}
	b.durMu.Unlock()
	if oldRun != nil {
		// Rebind (same identity restarting, or takeover): stop the
		// previous walker outside durMu — it reads filters under it.
		close(oldRun.stop)
		<-oldRun.done
	}

	b.durMu.Lock()
	if b.closed.Load() {
		b.durMu.Unlock()
		return
	}
	ds.member = pkt.Sender
	ds.px = ms.px
	ds.delivered.Store(from)
	run := &walkerRun{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		wake: make(chan struct{}, 1),
	}
	ds.run = run
	b.durByMember[pkt.Sender] = ds
	b.durMu.Unlock()

	// Durable members are fed from the log, never from live dispatch:
	// drop any matcher state the member may have (e.g. a device type
	// with initial subscriptions) so no PktEvent path targets it.
	b.match.UnsubscribeAll(pkt.Sender)

	// The ack goes onto the member's reliable stream before the walker
	// starts, so per-destination FIFO puts it ahead of every delivery.
	b.sendDurableAck(ms, pkt.Sender, wire.DurableAck{Epoch: epoch, From: from})

	b.wg.Add(1)
	go b.walk(ds, run, ms.px)
}

// sendDurableAck enqueues the resume acknowledgement without blocking
// the receive loop (a synchronous reliable send from here would wait
// on an ack only this same loop can process).
func (b *Bus) sendDurableAck(ms *memberState, to ident.ID, a wire.DurableAck) {
	ms.via.SendAsync(to, wire.PktDurableAck, wire.AppendDurableAck(nil, a))
}

// walk is the per-consumer walker: it reads the log in cursor order
// from the consumer's position, matches each record against the
// consumer's filters, and enqueues matches — cursor-stamped — to the
// member's proxy. Caught up with the tail it parks on the log's append
// notification; with no filters installed it parks without advancing,
// so events published before the (re)subscribe arrives are not
// skipped.
func (b *Bus) walk(ds *durableState, run *walkerRun, px *proxy.Proxy) {
	defer b.wg.Done()
	defer close(run.done)
	b.log.Subscribe(run.wake)
	defer b.log.Unsubscribe(run.wake)

	highWater := b.proxyCfg.QueueCap / 2
	if highWater < 1 {
		highWater = 1
	}
	for {
		select {
		case <-run.stop:
			return
		default:
		}
		b.durMu.Lock()
		filters := ds.filters
		b.durMu.Unlock()
		if len(filters) == 0 {
			if !b.parkWalker(run) {
				return
			}
			continue
		}
		rec, ok := b.log.Next(ds.delivered.Load() + 1)
		if !ok {
			if !b.parkWalker(run) {
				return
			}
			continue
		}
		// Borrowing decode against the retained segment: the event
		// aliases record bytes and owns the segment reference; the
		// buffer recycles when the event's storage is reclaimed.
		e := event.Acquire()
		bound, err := wire.DecodeEventBacked(e, rec.Payload, rec.Seg())
		if err != nil {
			e.Release()
			rec.Release()
			ds.delivered.Store(rec.Cursor) // skip the bad record
			continue
		}
		if !bound {
			rec.Release()
		}
		matched := false
		for _, f := range filters {
			if f.Matches(e) {
				matched = true
				break
			}
		}
		if !matched {
			e.Release()
			ds.delivered.Store(rec.Cursor)
			continue
		}
		// Backpressure instead of drop-oldest: the walker is the sole
		// producer into a durable member's proxy, so holding below the
		// high-water mark means the queue never sheds a delivery —
		// at-least-once must not lose events to its own queue.
		for px.QueueLen() >= highWater {
			select {
			case <-run.stop:
				e.Release()
				return
			case <-time.After(time.Millisecond):
			}
		}
		e.Cursor = rec.Cursor
		px.Enqueue(e) // proxy takes its own reference
		e.Release()
		ds.delivered.Store(rec.Cursor)
		ds.sent.Add(1)
		b.ctl().enqueuedRemote.Add(1)
	}
}

// parkWalker blocks until the walker is woken or stopped; false means
// stop.
func (b *Bus) parkWalker(run *walkerRun) bool {
	select {
	case <-run.stop:
		return false
	case <-run.wake:
		return true
	}
}

// handleDurableSubscription routes a bound member's subscribe traffic
// into its durable consumer's filter set instead of the matcher, and
// reports whether it did. Durable filters survive detach, so a rejoin
// replays with the filters of the previous attachment until the client
// re-subscribes.
func (b *Bus) handleDurableSubscription(pkt *wire.Packet, ms *memberState, f *event.Filter) bool {
	ds := b.durableFor(pkt.Sender)
	if ds == nil {
		return false
	}
	if pkt.Type == wire.PktSubscribe {
		if b.auth != nil {
			if err := b.auth.AuthorizeSubscribe(pkt.Sender, ms.deviceType, f); err != nil {
				b.ctl().authDenied.Add(1)
				return true
			}
		}
		b.durMu.Lock()
		dup := false
		for _, old := range ds.filters {
			if old.Equal(f) {
				dup = true
				break
			}
		}
		if !dup {
			ds.filters = append(ds.filters, f)
			b.durFilters.Add(1)
		}
		run := ds.run
		b.durMu.Unlock()
		b.ctl().subscriptions.Add(1)
		if run != nil {
			select {
			case run.wake <- struct{}{}:
			default:
			}
		}
		b.unquenchAll()
		return true
	}
	b.durMu.Lock()
	for i, old := range ds.filters {
		if old.Equal(f) {
			ds.filters = append(ds.filters[:i], ds.filters[i+1:]...)
			b.durFilters.Add(-1)
			b.ctl().unsubscriptions.Add(1)
			break
		}
	}
	b.durMu.Unlock()
	return true
}

// detachDurable unbinds a departing member from its durable consumer,
// stopping the walker. The consumer's name, filters and cursor stay —
// that persistence is the point — so a rejoin resumes where delivery
// stopped.
func (b *Bus) detachDurable(id ident.ID) {
	b.durMu.Lock()
	ds := b.durByMember[id]
	if ds == nil {
		b.durMu.Unlock()
		return
	}
	delete(b.durByMember, id)
	ds.member = ident.ID(0)
	ds.px = nil
	run := ds.run
	ds.run = nil
	b.durMu.Unlock()
	if run != nil {
		close(run.stop)
		<-run.done
	}
}

// stopWalkers ends every walker (bus shutdown).
func (b *Bus) stopWalkers() {
	b.durMu.Lock()
	var runs []*walkerRun
	for _, ds := range b.durables {
		if ds.run != nil {
			runs = append(runs, ds.run)
			ds.run = nil
		}
		if !ds.member.IsNil() {
			delete(b.durByMember, ds.member)
			ds.member = ident.ID(0)
			ds.px = nil
		}
	}
	b.durMu.Unlock()
	for _, run := range runs {
		close(run.stop)
		<-run.done
	}
}

// LogReport snapshots the durable log and per-consumer lag for the
// management plane. Consumers are sorted by name for deterministic
// output. Zero values when durability is off.
func (b *Bus) LogReport() (wire.LogCounters, []wire.DurableCounters) {
	if b.log == nil {
		return wire.LogCounters{}, nil
	}
	st := b.log.Stats()
	lc := wire.LogCounters{
		Enabled:          true,
		Epoch:            st.Epoch,
		OldestCursor:     st.OldestCursor,
		NewestCursor:     st.NewestCursor,
		Events:           st.Events,
		Bytes:            st.Bytes,
		Segments:         st.Segments,
		Appended:         st.Appended,
		Evicted:          st.Evicted,
		DupsDropped:      st.DupsDropped,
		SegmentsAcquired: st.SegmentsAcquired,
		SegmentsRecycled: st.SegmentsRecycled,
	}
	b.durMu.Lock()
	rows := make([]wire.DurableCounters, 0, len(b.durables))
	for name, ds := range b.durables {
		delivered := ds.delivered.Load()
		lag := uint64(0)
		if st.NewestCursor > delivered {
			lag = st.NewestCursor - delivered
		}
		rows = append(rows, wire.DurableCounters{
			Name:      name,
			Attached:  !ds.member.IsNil(),
			Delivered: delivered,
			Lag:       lag,
		})
	}
	b.durMu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return lc, rows
}
