package bus

import (
	"slices"
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
// the member in cursor order.
//
// The consumer's filters sit in the bus's matcher under an identity of
// its own (durableIDBase), so a publish is matched once for live and
// durable subscribers alike. How a matched record reaches the member
// depends on where the consumer stands:
//
//   - Behind the tail, a per-consumer walker goroutine reads the log
//     from the cursor, decodes each record and checks it against the
//     consumer's filters — catch-up.
//   - Caught up, the walker attaches the consumer under the log lock,
//     and from then on the shard that appends a record hands the shared
//     event, with its cursor, to every attached consumer its match
//     named, under that same lock (shardWorker.Appended). The walker
//     parks until the consumer is detached again.
//
// Attach happens only when the cursor is the newest under the log
// lock, and a detach leaves the cursor at the last record the shards
// dealt with, so the walker and the shards never both or neither serve
// a record. Deliveries to one consumer are enqueued under the log lock
// in either mode, so they reach its proxy in cursor order; the proxy
// queue and the reliable stream are FIFO, which is what makes "max
// cursor seen" a safe client-side resume point and the cursor floor a
// safe dedup rule.
//
// A consumer whose proxy queue reaches high water is detached in front
// of the record that found it full — parked at its cursor, nothing
// shed, nothing blocking under the lock — and its walker catches up
// once the member drains. A consumer with no filters is never attached
// and its walker does not advance, so events published before the
// (re)subscribe arrives are not skipped.
//
// Cursors are only comparable within one log incarnation (epoch): a
// resume whose epoch does not match the live log's — including the
// fresh consumer's zero — replays from the oldest retained event, and
// the ack tells the client the floor it must reset to. The ack is
// enqueued on the member's reliable stream before the walker starts,
// so it precedes every delivery.

// Durable consumer identities in the matcher: top octet 0xFD, beside
// the local handlers' 0xFE and outside the address-derived IDs; the low
// 40 bits number the consumer from 1. Consumers are never deleted, so
// a number always resolves to the consumer it was issued to.
const durableIDBase = ident.ID(0xFD) << 40

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
// done closes when it has exited. wake is poked (non-blocking) by
// filter changes and by a detach.
type walkerRun struct {
	stop chan struct{}
	done chan struct{}
	wake chan struct{}
}

// handOff is where an attached consumer's records go: the bound
// member's proxy, and the walker to wake when the consumer detaches.
type handOff struct {
	px   *proxy.Proxy
	wake chan struct{}
}

// durableState is one named durable consumer. Filters and the binding
// are guarded by Bus.durMu; delivered is atomic so the walker can
// advance it without taking the lock per record.
type durableState struct {
	name string
	id   ident.ID // matcher identity: durableIDBase | consumer number
	// filters is copy-on-write: a walker matches against the slice it
	// read under durMu while subscribes replace it.
	filters []*event.Filter
	member  ident.ID // bound member (nil ID when detached)
	run     *walkerRun
	// delivered is the consumer's cursor while its walker runs: the
	// last log position walked past (delivered or filtered out). While
	// attached the shards serve it instead and it is not updated; a
	// detach sets it to where they stopped.
	delivered atomic.Uint64
	// attached is the hand-off target while the consumer is caught up;
	// nil otherwise. Written only under the log lock.
	attached atomic.Pointer[handOff]
}

// detachLocked hands a consumer back to its walker with its cursor at
// at: every record up to at has been dealt with for it. The caller
// holds the log lock (an AppendHook or an AtTail step). A consumer that
// is not attached is left alone.
func (ds *durableState) detachLocked(at uint64) {
	h := ds.attached.Load()
	if h == nil {
		return
	}
	ds.delivered.Store(at)
	ds.attached.Store(nil)
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// highWater is the proxy queue depth at which durable delivery holds
// off: below QueueCap, so a durable member's queue never sheds.
func (b *Bus) highWater() int {
	return max(b.proxyCfg.QueueCap/2, 1)
}

// appendDurable appends e to the log with w as the append hook, so the
// attached durable consumers w's match named receive it under the log
// lock. gen is durGen as read before the match. It reports false when
// the publisher dedup window suppressed the append.
func (b *Bus) appendDurable(w *shardWorker, e *event.Event, gen uint64) bool {
	var dedupID int64
	hasDedup := false
	if v, ok := e.Get(store.AttrDedup); ok {
		dedupID, hasDedup = v.Int()
	}
	w.e, w.gen, w.handed = e, gen, 0
	_, dup := b.log.Append(e, dedupID, hasDedup, w)
	w.e = nil
	return !dup
}

// Appended implements store.AppendHook: under the log lock, it hands
// the record just appended at cursor to every attached consumer the
// match named. A consumer whose proxy queue is at high water is
// detached in front of this record instead (park to cursor).
//
// The match ran before the lock was taken. If a durable filter changed
// since (durGen moved), the match may be stale for any consumer, so
// every attached one is detached in front of this record and its
// walker matches the record against the current filters.
func (w *shardWorker) Appended(cursor uint64) {
	b := w.b
	tab := *b.durTab.Load()
	if b.durGen.Load() != w.gen {
		for _, ds := range tab {
			ds.detachLocked(cursor - 1)
		}
		return
	}
	for _, t := range w.targets {
		if t>>40 != durableIDBase>>40 {
			continue
		}
		n := int(t &^ durableIDBase)
		if n == 0 || n > len(tab) {
			continue
		}
		ds := tab[n-1]
		h := ds.attached.Load()
		if h == nil {
			continue
		}
		if h.px.QueueLen() >= b.highWater() {
			ds.detachLocked(cursor - 1)
			w.ctr.durableParks.Add(1)
			continue
		}
		h.px.EnqueueAt(w.e, cursor)
		w.handed++
	}
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
		b.durList = append(b.durList, &durableState{
			name: r.Name,
			id:   durableIDBase | ident.ID(len(b.durList)+1),
		})
		tab := slices.Clip(b.durList)
		b.durTab.Store(&tab)
		ds = b.durList[len(b.durList)-1]
		b.durables[r.Name] = ds
	}
	oldRun := ds.run
	ds.run = nil
	if !ds.member.IsNil() {
		delete(b.durByMember, ds.member)
		ds.member = ident.ID(0)
	}
	b.durMu.Unlock()
	if oldRun != nil {
		// Rebind (same identity restarting, or takeover): stop the
		// previous walker outside durMu — it reads filters under it —
		// and with it the previous hand-off.
		close(oldRun.stop)
		<-oldRun.done
	}

	b.durMu.Lock()
	if b.closed.Load() {
		b.durMu.Unlock()
		return
	}
	ds.member = pkt.Sender
	ds.delivered.Store(from)
	run := &walkerRun{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		wake: make(chan struct{}, 1),
	}
	ds.run = run
	b.durByMember[pkt.Sender] = ds
	b.durMu.Unlock()

	// Durable members are fed as their consumer, never as themselves:
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
// member's proxy, holding off while the queue is at high water. Caught
// up with the tail it attaches the consumer and parks until detached;
// with no filters installed it parks without advancing, so events
// published before the (re)subscribe arrives are not skipped. It exits
// detached, its cursor past every record the shards handed over.
func (b *Bus) walk(ds *durableState, run *walkerRun, px *proxy.Proxy) {
	defer b.wg.Done()
	defer close(run.done)
	defer b.log.AtTail(func(newest uint64) { ds.detachLocked(newest) })

	hand := &handOff{px: px, wake: run.wake}
	for {
		select {
		case <-run.stop:
			return
		default:
		}
		b.durMu.Lock()
		filters := ds.filters
		b.durMu.Unlock()
		if ds.attached.Load() != nil || len(filters) == 0 {
			select {
			case <-run.stop:
				return
			case <-run.wake:
			}
			continue
		}
		rec, ok := b.log.Next(ds.delivered.Load() + 1)
		if !ok {
			// Nothing past the cursor: hand over to the appending
			// shards, unless a record landed since Next looked (then
			// read it first) or the last filter went (then park).
			b.log.AtTail(func(newest uint64) {
				b.durMu.Lock()
				subscribed := len(ds.filters) > 0
				b.durMu.Unlock()
				if subscribed && ds.delivered.Load() >= newest {
					ds.attached.Store(hand)
				}
			})
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
		if !slices.ContainsFunc(filters, func(f *event.Filter) bool { return f.Matches(e) }) {
			e.Release()
			ds.delivered.Store(rec.Cursor)
			continue
		}
		// Backpressure instead of drop-oldest: while walking, the
		// walker is the sole producer into a durable member's proxy, so
		// holding below the high-water mark means the queue never sheds
		// a delivery — at-least-once must not lose events to its own
		// queue.
		for px.QueueLen() >= b.highWater() {
			select {
			case <-run.stop:
				e.Release()
				return
			case <-time.After(time.Millisecond):
			}
		}
		px.EnqueueAt(e, rec.Cursor) // proxy takes its own reference
		e.Release()
		ds.delivered.Store(rec.Cursor)
		b.ctl().enqueuedRemote.Add(1)
	}
}

// handleDurableSubscription routes a bound member's subscribe traffic
// to its durable consumer — the consumer's filter list and its identity
// in the matcher — and reports whether it did. Durable filters survive
// detach, so a rejoin replays with the filters of the previous
// attachment until the client re-subscribes. Every change bumps durGen
// once the matcher has it (see Appended); removing the last filter
// detaches the consumer where it stands, so it does not advance.
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
		added := !slices.ContainsFunc(ds.filters, f.Equal)
		if added {
			if err := b.match.Subscribe(ds.id, f); err != nil {
				b.durMu.Unlock()
				b.ctl().badPackets.Add(1)
				return true
			}
			// Appending never rewrites the elements a walker's copy
			// holds.
			ds.filters = append(ds.filters, f)
			b.durFilters.Add(1)
		}
		run := ds.run
		b.durMu.Unlock()
		if added {
			b.durGen.Add(1)
		}
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
	i := slices.IndexFunc(ds.filters, f.Equal)
	if i >= 0 {
		_ = b.match.Unsubscribe(ds.id, ds.filters[i]) // installed when added: cannot be absent
		ds.filters = slices.Delete(slices.Clone(ds.filters), i, i+1)
		b.durFilters.Add(-1)
		b.ctl().unsubscriptions.Add(1)
	}
	last := i >= 0 && len(ds.filters) == 0
	b.durMu.Unlock()
	if i >= 0 {
		b.durGen.Add(1)
	}
	if last {
		b.log.AtTail(func(newest uint64) {
			b.durMu.Lock()
			unsubscribed := len(ds.filters) == 0
			b.durMu.Unlock()
			if unsubscribed {
				ds.detachLocked(newest)
			}
		})
	}
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
		}
	}
	b.durMu.Unlock()
	for _, run := range runs {
		close(run.stop)
		<-run.done
	}
}

// DurableRow is one durable consumer's management-plane row.
type DurableRow struct {
	Name string
	// Attached reports whether a member is currently bound to it.
	Attached bool
	// Delivered is the last cursor handed to the member's proxy; Lag
	// is NewestCursor - Delivered, the retained events not yet
	// dispatched to this consumer.
	Delivered uint64
	Lag       uint64
}

// LogReport snapshots the durable log and per-consumer lag for the
// management plane. Consumers are sorted by name for deterministic
// output; an attached consumer is at the tail, lag 0. Zero values when
// durability is off.
func (b *Bus) LogReport() (store.Stats, []DurableRow) {
	if b.log == nil {
		return store.Stats{}, nil
	}
	st := b.log.Stats()
	b.durMu.Lock()
	rows := make([]DurableRow, 0, len(b.durables))
	for name, ds := range b.durables {
		delivered := ds.delivered.Load()
		if ds.attached.Load() != nil {
			delivered = max(delivered, st.NewestCursor)
		}
		rows = append(rows, DurableRow{
			Name:      name,
			Attached:  !ds.member.IsNil(),
			Delivered: delivered,
			Lag:       st.NewestCursor - min(delivered, st.NewestCursor),
		})
	}
	b.durMu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return st, rows
}
