// Package bus implements the SMC event bus (§III): a content-based
// publish/subscribe service with the delivery semantics of §II-C
// layered on top of a pluggable matching mechanism.
//
// The bus receives events from member services over the reliable
// channel (every hop acknowledged), matches them against installed
// subscriptions, and hands matching events to each subscriber's proxy,
// whose FIFO queue and resend logic maintain the ordering constraint
// and persistent delivery. Core services co-located with the bus
// (discovery, policy, bootstrap) attach as local services without
// crossing the network.
//
// The publish→match→deliver path is a sharded, allocation-free
// pipeline: events are hashed by publisher ID onto one of several
// worker shards (preserving the per-publisher FIFO guarantee of §II-C
// while unrelated publishers match in parallel), counters are atomic,
// membership is read from a copy-on-write snapshot, and one shared
// immutable event is delivered to every match instead of a deep clone
// per subscriber — the per-packet copying §V identifies as the
// dominant cost on the constrained host.
package bus

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amuse/smc/internal/bootstrap"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/wire"
)

var (
	// errClosed reports use of a closed bus.
	errClosed = errors.New("bus: closed")
	// errBusy reports a full processing queue (bounded memory).
	errBusy = errors.New("bus: processing queue full")
	// ErrUnauthorized reports a publish or subscribe denied by the
	// authorisation policy.
	ErrUnauthorized = errors.New("bus: unauthorized")
)

// Handler consumes events delivered to a local service. The event is
// shared with every other subscriber of the same publish and must be
// treated as read-only.
type Handler func(e *event.Event)

// Authorizer is consulted before member publishes and subscriptions
// are accepted; the policy service implements it (§II-A authorisation
// policies). A nil Authorizer admits everything.
type Authorizer interface {
	AuthorizePublish(member ident.ID, deviceType string, e *event.Event) error
	AuthorizeSubscribe(member ident.ID, deviceType string, f *event.Filter) error
}

// Stats counts bus activity. A Stats value is a fold of per-shard
// counter blocks taken while dispatch keeps running, so it is a
// point-in-time observation, not a consistent cut: every counter is
// individually exact and monotonic, but counters read relative to each
// other may be mid-event (e.g. Published can momentarily exceed
// Matched+NoMatch while a shard is between the two increments). On a
// quiesced bus all invariants hold exactly.
type Stats struct {
	Published uint64
	// Matched counts publishes some installed filter matched — a live
	// subscriber's, a local handler's or a durable consumer's (durable
	// filters are in the matcher too, attached or not); NoMatch the rest.
	Matched uint64
	NoMatch uint64
	// DeliveredLocal counts local handler invocations: one per handler
	// whose filter the event satisfied, so a service with three matching
	// handlers adds three. EnqueuedRemote counts one per matching member,
	// however many of its filters matched, plus one per durable delivery
	// (from the appending shard or from a catching-up walker).
	DeliveredLocal uint64
	EnqueuedRemote uint64
	// DurableParks counts attached durable consumers handed back to
	// their walker because their proxy queue was at high water: parked
	// at their cursor, nothing shed (DESIGN.md, row 8).
	DurableParks uint64
	Quenches     uint64
	Unquenches   uint64
	AuthDenied   uint64
	NonMember    uint64
	BadPackets   uint64
	// Dropped counts member publishes shed because the processing
	// queue was full (errBusy) — overload, as distinct from the
	// corruption BadPackets counts.
	Dropped         uint64
	Subscriptions   uint64
	Unsubscriptions uint64
}

// busCounters is one atomic counter block. The bus keeps one block per
// shard worker plus one for the receive/control paths: each worker
// bumps only its own block, so the dispatch hot path's counter updates
// never contend on — or cache-line-bounce — state shared with another
// core. Stats folds the blocks on read.
type busCounters struct {
	published       atomic.Uint64
	matched         atomic.Uint64
	noMatch         atomic.Uint64
	deliveredLocal  atomic.Uint64
	enqueuedRemote  atomic.Uint64
	durableParks    atomic.Uint64
	quenches        atomic.Uint64
	unquenches      atomic.Uint64
	authDenied      atomic.Uint64
	nonMember       atomic.Uint64
	badPackets      atomic.Uint64
	dropped         atomic.Uint64
	subscriptions   atomic.Uint64
	unsubscriptions atomic.Uint64
	// Pad the block to a multiple of 128 bytes (two cache lines, the
	// spatial-prefetcher granule) so adjacent shards' blocks never
	// share a line — false sharing would reintroduce exactly the
	// cross-core bouncing the per-shard split removes.
	_ [128 - (14*8)%128]byte
}

// foldStats sums counter blocks into a Stats snapshot.
func foldStats(blocks []busCounters) Stats {
	var s Stats
	for i := range blocks {
		c := &blocks[i]
		s.Published += c.published.Load()
		s.Matched += c.matched.Load()
		s.NoMatch += c.noMatch.Load()
		s.DeliveredLocal += c.deliveredLocal.Load()
		s.EnqueuedRemote += c.enqueuedRemote.Load()
		s.DurableParks += c.durableParks.Load()
		s.Quenches += c.quenches.Load()
		s.Unquenches += c.unquenches.Load()
		s.AuthDenied += c.authDenied.Load()
		s.NonMember += c.nonMember.Load()
		s.BadPackets += c.badPackets.Load()
		s.Dropped += c.dropped.Load()
		s.Subscriptions += c.subscriptions.Load()
		s.Unsubscriptions += c.unsubscriptions.Load()
	}
	return s
}

// Option configures a Bus.
type Option func(*Bus)

// WithQuench enables publisher quenching (§VI): publishers whose events
// currently match no subscription are told to stop sending.
func WithQuench(on bool) Option {
	return func(b *Bus) { b.quenchOn = on }
}

// WithBatching tunes outbound coalescing on every member proxy: up to
// events deliveries or maxBytes of payload per batch packet, a partial
// batch waiting delay for more once the queue runs dry. Zeros take the
// proxy defaults — 16 events, 8 KiB, and no wait at all (opportunistic:
// only what is already queued coalesces); events == 1 turns coalescing
// off (see proxy.Config). It sets the three batching fields of the
// proxy configuration.
func WithBatching(events, maxBytes int, delay time.Duration) Option {
	return func(b *Bus) {
		b.proxyCfg.BatchEvents, b.proxyCfg.BatchBytes, b.proxyCfg.FlushDelay = events, maxBytes, delay
	}
}

// WithQueueDepth sets the processing queue depth of each worker shard.
// A publisher's burst capacity is its shard's depth — the same bound a
// single-loop bus with this depth gives — while total queued events
// are bounded by depth × shards.
func WithQueueDepth(n int) Option {
	return func(b *Bus) {
		if n > 0 {
			b.queueDepth = n
		}
	}
}

// WithShards sets the number of pipeline worker shards. Events are
// hashed by publisher ID onto a shard, so one publisher's events are
// always processed by one worker in FIFO order while different
// publishers proceed in parallel; membership events are hashed by the
// member they announce. The default is GOMAXPROCS.
func WithShards(n int) Option {
	return func(b *Bus) {
		if n > 0 {
			b.shards = n
		}
	}
}

// membership is the immutable copy-on-write membership snapshot read
// lock-free by the receive and dispatch paths; it is rebuilt under
// Bus.mu whenever a member or local service is added or removed.
type membership struct {
	members map[ident.ID]*memberState
	// locals is indexed by service number − 1 (see localIDBase), so a
	// matched local handler's identity resolves without a map probe.
	locals []*LocalService
}

var emptyMembership = &membership{members: map[ident.ID]*memberState{}}

// Bus is the event bus.
type Bus struct {
	ch       *reliable.Channel
	match    matcher.Matcher
	registry *bootstrap.Registry

	auth       Authorizer
	quenchOn   bool
	proxyCfg   proxy.Config
	queueDepth int
	shards     int

	// snap is the membership snapshot for the hot path; members and
	// locals below are the canonical maps, mutated under mu only.
	snap atomic.Pointer[membership]
	// announcer is the local service "membership", the sender of every
	// New Member and Purge Member event.
	announcer *LocalService

	// lifeMu serialises AddMember and RemoveMember, announcement waits
	// included; no shard worker takes it.
	lifeMu   sync.Mutex
	mu       sync.Mutex
	members  map[ident.ID]*memberState
	locals   []*LocalService // append-only; service number n is locals[n-1]
	quenched map[ident.ID]bool
	closed   atomic.Bool // written under mu; read lock-free
	// fence is the marker awaitInbox queued in the channel inbox, and
	// fenceDone what the receive loop closes on reaching it; guarded by
	// mu, one at a time under lifeMu.
	fence     *wire.Packet
	fenceDone chan struct{}

	// Durable subscriptions (durable.go). log is set once by
	// WithDurableLog; the maps and durList are guarded by durMu (never
	// nested inside mu; taken inside the log lock, never around it).
	// durTab is durList's lock-free snapshot for the append hook.
	// durFilters counts installed durable filters so the quench path
	// can tell, without the lock, that publishes matter to the log;
	// durGen counts durable filter changes (see shardWorker.Appended).
	log         *store.Log
	durMu       sync.Mutex
	durables    map[string]*durableState
	durByMember map[ident.ID]*durableState
	durList     []*durableState // consumer number n is durList[n-1]
	durTab      atomic.Pointer[[]*durableState]
	durFilters  atomic.Int64
	durGen      atomic.Uint64

	// ctrs holds one padded counter block per shard worker plus a
	// final block for the receive/control paths (index len-1).
	ctrs []busCounters

	workers []*shardWorker
	done    chan struct{}
	wg      sync.WaitGroup
}

type memberState struct {
	deviceType string
	name       string
	px         *proxy.Proxy
	// via is the channel the member is reachable on (the proxy's
	// sender); control replies like PktDurableAck go through it so
	// they share the proxy's per-destination FIFO stream.
	via proxy.AsyncSender
}

// shardWorker is one pipeline worker: its own bounded queue plus
// per-shard scratch, reused across events so dispatch does not
// allocate. The matcher scratch and the counter block are plain
// per-worker state — they never cross a sync.Pool or touch another
// shard's cache lines. The worker is also its own log append hook
// (durable.go): e, gen and handed carry the event being appended into
// the hook and its hand-off count back out.
type shardWorker struct {
	b       *Bus
	work    chan *event.Event
	targets []ident.ID
	sc      *matcher.Scratch
	ctr     *busCounters

	e      *event.Event
	gen    uint64
	handed uint64
}

// New builds a bus over a reliable channel with the given matching
// mechanism and proxy factory registry. The bus owns the channel and
// closes it on Close. Call Start to begin processing.
func New(ch *reliable.Channel, m matcher.Matcher, reg *bootstrap.Registry, opts ...Option) *Bus {
	b := &Bus{
		ch:          ch,
		match:       m,
		registry:    reg,
		proxyCfg:    proxy.DefaultConfig(),
		queueDepth:  4096,
		shards:      runtime.GOMAXPROCS(0),
		members:     make(map[ident.ID]*memberState),
		quenched:    make(map[ident.ID]bool),
		durables:    make(map[string]*durableState),
		durByMember: make(map[ident.ID]*durableState),
		done:        make(chan struct{}),
	}
	b.snap.Store(emptyMembership)
	b.durTab.Store(new([]*durableState))
	for _, o := range opts {
		o(b)
	}
	if b.shards < 1 {
		b.shards = 1
	}
	b.ctrs = make([]busCounters, b.shards+1)
	b.workers = make([]*shardWorker, b.shards)
	for i := range b.workers {
		b.workers[i] = &shardWorker{
			b:    b,
			work: make(chan *event.Event, b.queueDepth),
			sc:   matcher.NewScratch(),
			ctr:  &b.ctrs[i],
		}
	}
	b.announcer = b.Local("membership")
	return b
}

// ctl is the counter block of the receive/control paths (everything
// that is not a shard worker).
func (b *Bus) ctl() *busCounters { return &b.ctrs[len(b.ctrs)-1] }

// ID returns the bus's service ID on the network.
func (b *Bus) ID() ident.ID { return b.ch.LocalID() }

// SetAuthorizer installs the authorisation hook. It must be called
// before Start (the policy engine is constructed on top of the bus, so
// it cannot be passed to New).
func (b *Bus) SetAuthorizer(a Authorizer) { b.auth = a }

// MatcherName reports the active matching mechanism.
func (b *Bus) MatcherName() string { return b.match.Name() }

// Shards reports the number of pipeline worker shards.
func (b *Bus) Shards() int { return b.shards }

// Stats folds the per-shard counter blocks into one snapshot. See the
// Stats type for the point-in-time semantics of a fold taken while
// dispatch is running.
func (b *Bus) Stats() Stats { return foldStats(b.ctrs) }

// Start launches the receive loop and the shard workers.
func (b *Bus) Start() {
	b.wg.Add(1 + len(b.workers))
	go func() {
		defer b.wg.Done()
		b.recvFrom(b.ch)
	}()
	for _, w := range b.workers {
		go b.shardLoop(w)
	}
}

// Close shuts the bus down: the channel closes, loops drain, and every
// proxy is purged.
func (b *Bus) Close() error {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return nil
	}
	b.closed.Store(true)
	members := make([]*memberState, 0, len(b.members))
	for _, ms := range b.members {
		members = append(members, ms)
	}
	b.members = make(map[ident.ID]*memberState)
	// b.locals stays: service numbers index it, and a Local call after
	// Close must not reissue one whose handlers the matcher still holds.
	b.snap.Store(emptyMembership)
	b.mu.Unlock()

	b.stopWalkers()
	err := b.ch.Close()
	close(b.done)
	b.wg.Wait()
	for _, ms := range members {
		ms.px.Purge()
	}
	if b.log != nil {
		if lerr := b.log.Close(); err == nil {
			err = lerr
		}
	}
	return err
}

// ---- membership ----

// rebuildSnapshot publishes a fresh immutable membership snapshot from
// the canonical maps. Caller holds b.mu.
func (b *Bus) rebuildSnapshot() {
	snap := &membership{
		members: make(map[ident.ID]*memberState, len(b.members)),
		// b.locals only ever grows by append, so the snapshot can share
		// its backing array: capping the slice keeps later appends out
		// of the elements a reader of this snapshot can reach.
		locals: b.locals[:len(b.locals):len(b.locals)],
	}
	for id, ms := range b.members {
		snap.members[id] = ms
	}
	b.snap.Store(snap)
}

// AddMember admits a service: a proxy of the appropriate concrete type
// is created via the bootstrap registry (§III-C), New Member (§II-B) is
// published into the member's own shard queue — waiting for room, as
// LocalService.Publish does — and only then is the member admitted, its
// proxy started and its initial subscriptions installed. Every event
// admitted from the member thus queues behind its New Member.
func (b *Bus) AddMember(id ident.ID, deviceType, name string) error {
	return b.addMember(id, deviceType, name, b.ch)
}

func (b *Bus) addMember(id ident.ID, deviceType, name string, via proxy.AsyncSender) error {
	b.lifeMu.Lock()
	defer b.lifeMu.Unlock()
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return errClosed
	}
	if _, dup := b.members[id]; dup {
		b.mu.Unlock()
		return fmt.Errorf("bus: member %s already present", id)
	}
	b.mu.Unlock()

	ms := &memberState{deviceType: deviceType, name: name, via: via}
	// Device data the proxy translates into events is a member publish
	// like any other: it enters through admit, which counts a refusal
	// itself, so the proxy carries on with the reading's other events.
	ms.px = proxy.New(id, b.registry.Make(deviceType, id, name), via, func(e *event.Event) error {
		b.admit(ms, e)
		return nil
	}, b.proxyCfg)
	// Never while holding mu: a shard worker takes it in maybeQuench.
	err := b.announce(event.TypeNewMember, id, ms, "")
	b.mu.Lock()
	if err == nil && b.closed.Load() {
		err = errClosed // Close has already purged the members it found
	}
	if err != nil {
		b.mu.Unlock()
		return err
	}
	b.members[id] = ms
	b.rebuildSnapshot()
	b.mu.Unlock()

	ms.px.Start()
	for _, f := range ms.px.InitialSubscriptions() {
		if err := b.match.Subscribe(id, f); err != nil {
			return fmt.Errorf("bus: initial subscription for %s: %w", id, err)
		}
	}
	return nil
}

// RemoveMember purges a member: subscriptions are removed, the proxy
// destroys itself discarding queued deliveries, and reliability state
// is forgotten so a returning device starts a clean stream. Purge
// Member, carrying reason, then goes into the member's own shard
// queue, behind every event admitted from it; RemoveMember waits for
// room there. First it waits for the receive loop to handle what the
// bus channel has already taken: a graceful leave reaches discovery on
// another endpoint and must not overtake the member's acknowledged
// publishes.
func (b *Bus) RemoveMember(id ident.ID, reason string) {
	b.lifeMu.Lock()
	defer b.lifeMu.Unlock()
	if _, ok := b.memberState(id); ok {
		b.awaitInbox()
	}
	b.mu.Lock()
	ms, ok := b.members[id]
	if ok {
		delete(b.members, id)
		b.rebuildSnapshot()
	}
	delete(b.quenched, id)
	b.mu.Unlock()
	if !ok {
		return
	}
	b.detachDurable(id)
	b.match.UnsubscribeAll(id)
	ms.px.Purge()
	b.ch.Forget(id)
	_ = b.announce(event.TypePurgeMember, id, ms, reason) // fails only on a closed bus
}

// awaitInbox returns once the receive loop has handled every packet the
// bus channel took before the call, or the bus has closed. A full inbox
// is not waited out. Caller holds lifeMu.
func (b *Bus) awaitInbox() {
	fence, done := &wire.Packet{}, make(chan struct{})
	b.mu.Lock()
	b.fence, b.fenceDone = fence, done
	b.mu.Unlock()
	if b.ch.Inject(fence) {
		select {
		case <-done:
		case <-b.done:
		}
	}
	b.mu.Lock()
	b.fence, b.fenceDone = nil, nil
	b.mu.Unlock()
}

// RenewMember forgets the reliable streams of a member whose device
// joined again, so a restarted device's are not taken for the old
// session's. Membership and subscriptions stay; the proxy redelivers
// what was in flight.
func (b *Bus) RenewMember(id ident.ID) { b.ch.Forget(id) }

// announce publishes a New Member or Purge Member event about member
// id from the membership service. It goes into id's shard, not the
// service's: membership events are FIFO per subject, so they are
// ordered against the member's own events. It waits for room.
func (b *Bus) announce(class string, id ident.ID, ms *memberState, reason string) error {
	e := event.NewTyped(class).
		Set(event.AttrMember, event.Int(int64(id))).
		Set(event.AttrDeviceType, event.Str(ms.deviceType)).
		SetStr("name", ms.name)
	e.Stamp = time.Now()
	if reason != "" {
		e.SetStr("reason", reason)
	}
	return b.announcer.publish(e, id, true)
}

// Members lists current member IDs.
func (b *Bus) Members() []ident.ID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]ident.ID, 0, len(b.members))
	for id := range b.members {
		out = append(out, id)
	}
	return out
}

// MemberProxy exposes a member's proxy (nil when absent); used by
// integration tests and stats collection.
func (b *Bus) MemberProxy(id ident.ID) *proxy.Proxy {
	ms, ok := b.memberState(id)
	if !ok {
		return nil
	}
	return ms.px
}

// memberState resolves a member from the lock-free snapshot.
func (b *Bus) memberState(id ident.ID) (*memberState, bool) {
	ms, ok := b.snap.Load().members[id]
	return ms, ok
}

// ---- publish path ----

// shardFor maps a shard key — a publisher ID, or the subject of a
// membership event — onto a worker shard. Fibonacci hashing spreads
// the address-derived ID space evenly; one key always lands on the
// same shard, preserving its FIFO order.
func (b *Bus) shardFor(key ident.ID) *shardWorker {
	if len(b.workers) == 1 {
		return b.workers[0]
	}
	h := uint64(key) * 0x9E3779B97F4A7C15
	return b.workers[(h>>32)%uint64(len(b.workers))]
}

// enqueuePublish hands an event to the shard of key. A full queue
// refuses it with errBusy, unless wait is set: then it waits for room
// until the bus closes.
func (b *Bus) enqueuePublish(e *event.Event, key ident.ID, wait bool) error {
	if b.closed.Load() {
		return errClosed
	}
	w := b.shardFor(key)
	select {
	case w.work <- e:
		return nil
	default:
	}
	if !wait {
		return errBusy
	}
	select {
	case w.work <- e:
		return nil
	case <-b.done:
		return errClosed
	}
}

func (b *Bus) recvFrom(ch *reliable.Channel) {
	for {
		pkt, err := ch.Recv()
		if err != nil {
			return
		}
		b.handlePacket(pkt)
		// Drop the receive loop's reference. This is NOT necessarily
		// the last one: the borrowing event decode retains the packet
		// and aliases its payload into the decoded event, so the
		// buffer stays live until dispatch releases that event.
		pkt.Release()
	}
}

func (b *Bus) handlePacket(pkt *wire.Packet) {
	switch pkt.Type {
	case wire.PktEvent:
		b.handleEventPacket(pkt)
	case wire.PktData:
		b.handleDataPacket(pkt)
	case wire.PktSubscribe, wire.PktUnsubscribe:
		b.handleSubscriptionPacket(pkt)
	case wire.PktDurableResume:
		b.handleDurableResume(pkt)
	case wire.PktBeacon:
		// Discovery beacons are broadcast, and every endpoint on the
		// medium hears them, the bus's included: not its traffic, and
		// not a fault.
	default:
		b.mu.Lock()
		if pkt == b.fence {
			close(b.fenceDone)
			b.fence = nil
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		// Discovery/control traffic does not belong on the bus
		// endpoint (the discovery protocol "does not use the event
		// bus", §II-B).
		b.ctl().badPackets.Add(1)
	}
}

// handleEventPacket is the bus's one event loop: each frame the packet
// carries (wire.PacketFrames: its lone payload, or every frame of a
// FlagBatch one) decodes — borrowing — into its own pooled event holding
// an independent reference on the shared packet, and is admitted. Names
// and strings resolve through the intern table or alias the packet
// payload, so the deliver-and-drop path copies no strings; downstream
// this means remote-published events follow the pooled-event contract
// local pooled publishes already set: subscribers Clone whatever they
// keep past the handler callback. A corrupt frame stops the packet
// (frame bounds are length-prefixed, so nothing after a bad prefix can
// be trusted) but events already admitted stay admitted, matching the
// sender's FIFO prefix semantics.
func (b *Bus) handleEventPacket(pkt *wire.Packet) {
	ms, ok := b.memberState(pkt.Sender)
	if !ok {
		b.ctl().nonMember.Add(1)
		return
	}
	r, err := wire.PacketFrames(pkt)
	for err == nil && r.More() {
		var frame []byte
		if frame, err = r.Next(); err != nil {
			break
		}
		e := event.Acquire()
		if err = wire.DecodeBatchFrameInto(e, frame, pkt); err != nil {
			e.Release()
			break
		}
		// Anti-spoofing, per frame: a member's events carry its own
		// identity, no matter what the payload claims.
		e.Sender = pkt.Sender
		if e.Seq == 0 {
			e.Seq = pkt.Seq
		}
		b.admit(ms, e)
	}
	if err != nil {
		b.ctl().badPackets.Add(1)
	}
}

// admit is the one gate in front of every member publish (§II-A) —
// frames decoded off the wire and device data a proxy translated
// alike: authorise, hand to the publisher's shard, count. It owns e:
// an event refused for any reason is released here.
func (b *Bus) admit(ms *memberState, e *event.Event) {
	if b.auth != nil {
		if err := b.auth.AuthorizePublish(e.Sender, ms.deviceType, e); err != nil {
			e.Release()
			b.ctl().authDenied.Add(1)
			return
		}
	}
	if err := b.enqueuePublish(e, e.Sender, false); err != nil {
		e.Release()
		if errors.Is(err, errBusy) {
			b.ctl().dropped.Add(1) // overload, not corruption
		} else {
			b.ctl().badPackets.Add(1)
		}
	}
}

func (b *Bus) handleDataPacket(pkt *wire.Packet) {
	ms, ok := b.memberState(pkt.Sender)
	if !ok {
		b.ctl().nonMember.Add(1)
		return
	}
	// Raw device bytes: the member's proxy performs the
	// pre-processing into fully fledged event objects (§III-B) and
	// publishes them through admit; what is left to fail is the
	// translation itself.
	if err := ms.px.HandleInbound(pkt.Payload); err != nil {
		b.ctl().badPackets.Add(1)
	}
}

func (b *Bus) handleSubscriptionPacket(pkt *wire.Packet) {
	ms, ok := b.memberState(pkt.Sender)
	if !ok {
		b.ctl().nonMember.Add(1)
		return
	}
	f, err := wire.DecodeFilter(pkt.Payload)
	if err != nil {
		b.ctl().badPackets.Add(1)
		return
	}
	// A member bound to a durable consumer subscribes as the consumer,
	// not as itself: the filters are the consumer's server-side state
	// and are matched under its identity (durable.go).
	if b.handleDurableSubscription(pkt, ms, f) {
		return
	}
	if pkt.Type == wire.PktSubscribe {
		if b.auth != nil {
			if err := b.auth.AuthorizeSubscribe(pkt.Sender, ms.deviceType, f); err != nil {
				b.ctl().authDenied.Add(1)
				return
			}
		}
		if err := b.match.Subscribe(pkt.Sender, f); err != nil {
			b.ctl().badPackets.Add(1)
			return
		}
		b.ctl().subscriptions.Add(1)
		b.unquenchAll()
		return
	}
	if err := b.match.Unsubscribe(pkt.Sender, f); err == nil {
		b.ctl().unsubscriptions.Add(1)
	}
}

// shardLoop drains one shard's queue until the bus closes, then drains
// whatever is already queued and stops.
func (b *Bus) shardLoop(w *shardWorker) {
	defer b.wg.Done()
	for {
		select {
		case e := <-w.work:
			b.process(w, e)
		case <-b.done:
			for {
				select {
				case e := <-w.work:
					b.process(w, e)
				default:
					return
				}
			}
		}
	}
}

// process matches one event, appends it to the durable log (when there
// is one) handing it to every attached durable consumer the match
// named, and then dispatches it to every other interested subscriber's
// proxy or local handler. Every local handler and every durable
// consumer is a subscriber of its own (see localIDBase, durableIDBase),
// so the matcher's verdict names exactly whom to serve and no filter is
// evaluated twice; a hit that no longer resolves — a member purged or a
// handler unsubscribed between match and dispatch — is skipped. The
// event is delivered shared and immutable: proxies, their devices and
// handlers must not mutate it.
//
// The bus owns the publisher's reference on the event for the duration
// of dispatch: each proxy takes its own reference when it enqueues the
// event, and the bus releases its reference at the end — for an event
// from event.Acquire with a purely local fan-out, that is the moment
// it recycles, which is why local subscribers of pooled traffic must
// Clone anything they keep beyond the handler callback. Events from
// event.New are unaffected (Release is a no-op).
func (b *Bus) process(w *shardWorker, e *event.Event) {
	w.ctr.published.Add(1)

	var gen uint64
	if b.log != nil {
		gen = b.durGen.Load() // before the match: see Appended
	}
	w.targets = b.match.MatchAppendScratch(e, w.targets[:0], w.sc)
	if b.log != nil && !b.appendDurable(w, e, gen) {
		// Suppressed by the publisher dedup window: dropped whole — no
		// live dispatch either, so redelivery after a sender restart is
		// idempotent for live and durable subscribers alike.
		e.Release()
		return
	}
	if len(w.targets) == 0 {
		w.ctr.noMatch.Add(1)
		b.maybeQuench(e.Sender)
		e.Release()
		return
	}
	w.ctr.matched.Add(1)

	snap := b.snap.Load()
	var nLocal uint64
	nRemote := w.handed
	for _, t := range w.targets {
		if fn := snap.localHandler(t); fn != nil {
			fn(e)
			nLocal++
			continue
		}
		ms, ok := snap.members[t]
		if !ok {
			continue // gone, or a durable consumer: appendDurable served it
		}
		ms.px.Enqueue(e)
		nRemote++
	}
	if nLocal > 0 {
		w.ctr.deliveredLocal.Add(nLocal)
	}
	if nRemote > 0 {
		w.ctr.enqueuedRemote.Add(nRemote)
	}
	e.Release()
}

// ---- quenching (§VI) ----

func (b *Bus) maybeQuench(sender ident.ID) {
	if !b.quenchOn || sender.IsNil() {
		return
	}
	// A no-match event still matters to the log: a durable consumer
	// that subscribes later replays it. Never quench a publisher while
	// any durable filter is installed — a quenched publisher stops
	// sending and the log would have gaps.
	if b.log != nil && b.durFilters.Load() > 0 {
		return
	}
	b.mu.Lock()
	_, isMember := b.members[sender]
	already := b.quenched[sender]
	if isMember && !already {
		b.quenched[sender] = true
		b.ctl().quenches.Add(1)
	}
	b.mu.Unlock()
	if isMember && !already {
		_ = b.ch.SendUnreliable(sender, wire.PktQuench, nil)
	}
}

func (b *Bus) unquenchAll() {
	b.mu.Lock()
	var ids []ident.ID
	for id := range b.quenched {
		ids = append(ids, id)
		delete(b.quenched, id)
	}
	b.ctl().unquenches.Add(uint64(len(ids)))
	b.mu.Unlock()
	for _, id := range ids {
		_ = b.ch.SendUnreliable(id, wire.PktUnquench, nil)
	}
}
