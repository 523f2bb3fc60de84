// Package reliable layers the paper's delivery semantics (§II-C) over
// an unreliable datagram transport with sliding-window ARQ:
//
//   - every reliable packet carries a per-destination sequence number
//     and is retransmitted with backoff until the receiver's
//     cumulative acknowledgement covers it or the retry budget runs
//     out (Fig. 3's synchronous acknowledged calls, pipelined);
//   - a sender keeps at most Config.Window unacknowledged packets in
//     flight per destination. Window=1 degenerates to the original
//     stop-and-wait behaviour for §V-faithful measurement;
//   - per-sender FIFO: the receiver holds out-of-order arrivals in a
//     bounded reorder buffer and releases packets to Recv strictly in
//     sequence order, so packets cannot overtake one another; its
//     cumulative acknowledgement covers only what Recv's queue took;
//   - at-most-once: duplicates created by retransmission are
//     suppressed by the cumulative sequence state;
//   - selective acks (RFC 2018): while its reorder buffer holds packets,
//     the receiver's ack also reports which ones (wire.FlagSack). The
//     sender resends an op the receiver lacks below one it holds at
//     once, once per loss, and a timer round resends only the ops not
//     known held; a second round without ack progress resends the
//     whole window, because a held report is advisory (a receiver may
//     drop what it reported: a full inbox sheds it).
//
// Give-up and stream resets. When the retry budget for a destination
// is exhausted every queued packet fails with ErrGaveUp, but the
// channel keeps the marshalled packets in a resume stash: a caller
// that re-sends the same payload (the proxy redelivery loop of §VI
// does exactly this) resumes the original sequence number, so a
// packet that had actually been delivered — only its acks were lost —
// is recognised and suppressed by the receiver instead of delivered
// twice. If the caller sends a different payload instead, the
// outbound stream restarts under a new epoch (wire.Packet.Epoch) and
// the receiver resets its ordering state when the new epoch arrives.
//
// Unreliable sends (FlagNoAck) bypass all of this: discovery beacons
// and heartbeats tolerate loss by design (§II-B).
package reliable

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

var (
	// ErrGaveUp reports retransmission exhaustion: the destination
	// did not acknowledge within the retry budget.
	ErrGaveUp = errors.New("reliable: gave up after retries")
	// ErrClosed reports use of a closed channel.
	ErrClosed = errors.New("reliable: closed")
	// errBacklog reports a per-destination send backlog overflow: the
	// caller is enqueueing faster than the destination acknowledges.
	errBacklog = errors.New("reliable: send backlog full")

	errBroadcast = errors.New("reliable: broadcast sends must be unreliable")
)

// Stats counts channel activity.
type Stats struct {
	Sent        uint64
	Acked       uint64
	Retransmits uint64
	// FastRetransmits counts loss-triggered resends: ops a selective
	// ack showed missing below one the receiver holds, resent before
	// their retransmit deadline.
	FastRetransmits uint64
	Failures        uint64
	Resumed         uint64
	StreamResets    uint64
	Received        uint64
	DupsDropped     uint64
	Buffered        uint64
	// ReorderDropped counts out-of-order packets dropped because their
	// sender's reorder buffer here already held reorderDepth packets;
	// the sender resends them.
	ReorderDropped uint64
	StaleAcks      uint64
	StaleEpoch     uint64
	UnreliableIn   uint64
	UnreliableOut  uint64
	// BatchesSent counts reliable batch packets enqueued
	// (SendBatchAsync); PiggybackAcks counts cumulative acks applied
	// from inbound batch prologues rather than standalone PktAck
	// packets.
	BatchesSent   uint64
	PiggybackAcks uint64
	// InboxDropped counts packets shed because the inbound queue was
	// full — Recv's consumer fell Config.QueueDepth packets behind — or
	// the channel was closing. A shed data packet is not acknowledged,
	// so its sender retransmits it. Local to this endpoint, like
	// BatchesSent.
	InboxDropped uint64
	// TransportDropped counts datagrams the endpoint's transport shed
	// before this channel read them (transport.Transport.Dropped).
	TransportDropped uint64
	// PacketsAcquired/PacketsRecycled expose the inbound packet pool:
	// every received packet is decoded into a pooled wire.Packet that
	// the consumer releases after delivery. On a quiesced channel the
	// two converge; a growing gap means a consumer is dropping packets
	// without Release (a pool leak — see TestPacketPoolLeakDetection).
	PacketsAcquired uint64
	PacketsRecycled uint64
	// RTTSamples counts round trips timed for the retransmit timer
	// (Karn's rule: only acks of packets sent exactly once); MaxRTOMicros
	// is the largest current RTO over live destinations, backoff
	// included.
	RTTSamples   uint64
	MaxRTOMicros uint64
}

// counters is the hot-path representation of Stats.
type counters struct {
	sent, retransmits, fastRetransmits, failures, resumed   atomic.Uint64
	streamResets, unreliableOut, batchesSent, acked         atomic.Uint64
	received, dupsDropped, buffered, staleAcks, staleEpoch  atomic.Uint64
	unreliableIn, piggybackAcks, rttSamples, reorderDropped atomic.Uint64
}

// Stats snapshots the channel's counters.
func (c *Channel) Stats() Stats {
	ctr := &c.ctr
	st := Stats{
		Sent:             ctr.sent.Load(),
		Acked:            ctr.acked.Load(),
		Retransmits:      ctr.retransmits.Load(),
		FastRetransmits:  ctr.fastRetransmits.Load(),
		Failures:         ctr.failures.Load(),
		Resumed:          ctr.resumed.Load(),
		StreamResets:     ctr.streamResets.Load(),
		Received:         ctr.received.Load(),
		DupsDropped:      ctr.dupsDropped.Load(),
		Buffered:         ctr.buffered.Load(),
		ReorderDropped:   ctr.reorderDropped.Load(),
		StaleAcks:        ctr.staleAcks.Load(),
		StaleEpoch:       ctr.staleEpoch.Load(),
		UnreliableIn:     ctr.unreliableIn.Load(),
		UnreliableOut:    ctr.unreliableOut.Load(),
		BatchesSent:      ctr.batchesSent.Load(),
		PiggybackAcks:    ctr.piggybackAcks.Load(),
		InboxDropped:     c.inbox.Dropped(),
		TransportDropped: c.tr.Dropped(),
		RTTSamples:       ctr.rttSamples.Load(),
	}
	st.PacketsAcquired, st.PacketsRecycled = c.pktPool.Stats()
	c.mu.Lock()
	for _, ds := range c.dests {
		ds.mu.Lock()
		st.MaxRTOMicros = max(st.MaxRTOMicros, uint64(ds.rto/time.Microsecond))
		ds.mu.Unlock()
	}
	c.mu.Unlock()
	return st
}

// reorderDepth bounds the receiver's per-sender reorder buffer, in
// packets. Arrivals beyond it are dropped and recovered by sender
// retransmission.
const reorderDepth = 64

// maxPending bounds the per-destination send backlog; SendAsync beyond
// it fails with errBacklog.
const maxPending = 1024

// minRTO floors a measured retransmit timeout: below it, scheduling
// noise at either end rather than the link would decide when a
// retransmit round fires.
const minRTO = 10 * time.Millisecond

// Config tunes the retransmission machinery.
type Config struct {
	// RetryTimeout is the retransmit timeout (RTO) a destination uses
	// before its first round-trip sample (default 50 ms); from then on
	// the RTO is measured (RFC 6298: smoothed RTT plus four times its
	// variance), clamped to [10 ms, MaxRetryTimeout]. Each retransmit
	// round doubles it, up to MaxRetryTimeout, until the next sample or
	// a give-up.
	RetryTimeout time.Duration
	// MaxRetryTimeout caps the backoff and the measured RTO (default
	// 10× RetryTimeout).
	MaxRetryTimeout time.Duration
	// MaxRetries bounds retransmission rounds per destination before
	// the queued packets fail with ErrGaveUp. Zero means the default
	// (6); a negative value disables retransmission entirely. Giving
	// up also takes no ack progress for as long as the unmeasured
	// schedule spends the budget in (2.25 s at the defaults), so a
	// measured RTO brings rounds sooner but never fails a destination
	// sooner.
	MaxRetries int
	// Window is the maximum number of unacknowledged packets in
	// flight per destination (default 16). Window=1 reproduces
	// stop-and-wait.
	Window int
	// QueueDepth sizes the inbound delivery queue.
	QueueDepth int
}

// defaultConfig suits the simulated wireless profiles.
func defaultConfig() Config {
	return Config{
		RetryTimeout: 50 * time.Millisecond,
		MaxRetries:   6,
		Window:       16,
		QueueDepth:   1024,
	}
}

// Completion is the handle returned by SendAsync: it resolves when the
// send is acknowledged or fails. Completions come from a pool and
// a caller that has observed the outcome (Wait returned, or Done fired
// and Err was read) may hand the handle back with Recycle; the wake
// channel underneath is created lazily, only when a waiter arrives
// before the send resolves, so a recycled completion whose sends
// resolve ahead of their waiters costs no allocation at all.
type Completion struct {
	mu       sync.Mutex
	done     chan struct{} // lazily created; closed on resolution
	resolved bool
	err      error
}

// closedChan is returned by Done for already-resolved completions.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Done returns a channel closed when the send has resolved.
func (c *Completion) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resolved {
		return closedChan
	}
	if c.done == nil {
		c.done = make(chan struct{})
	}
	return c.done
}

// Err reports the outcome; call it only after Done is closed.
func (c *Completion) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Wait blocks until the send resolves and returns its outcome.
func (c *Completion) Wait() error {
	c.mu.Lock()
	if c.resolved {
		err := c.err
		c.mu.Unlock()
		return err
	}
	if c.done == nil {
		c.done = make(chan struct{})
	}
	d := c.done
	c.mu.Unlock()
	<-d
	return c.Err()
}

// settle resolves the completion, waking every waiter.
func (c *Completion) settle(err error) {
	c.mu.Lock()
	c.err = err
	c.resolved = true
	if c.done != nil {
		close(c.done)
	}
	c.mu.Unlock()
}

// Recycle returns a resolved completion to the pool. Optional:
// callers that drop completions leave them to the garbage collector.
// The caller must not touch the completion afterwards; an unresolved
// completion is left alone.
func (c *Completion) Recycle() {
	c.mu.Lock()
	ok := c.resolved
	if ok {
		c.done, c.err, c.resolved = nil, nil, false
	}
	c.mu.Unlock()
	if ok {
		completionPool.Put(c)
	}
}

var completionPool = sync.Pool{New: func() interface{} { return new(Completion) }}

func newCompletion() *Completion { return completionPool.Get().(*Completion) }

func failedCompletion(err error) *Completion {
	c := newCompletion()
	c.settle(err)
	return c
}

// pktBufPool recycles marshalled packet buffers across sends and
// retransmits (retransmissions patch the header in place).
var pktBufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 512)
	return &b
}}

func getBuf() *[]byte { return pktBufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if bp == nil {
		return
	}
	*bp = (*bp)[:0]
	pktBufPool.Put(bp)
}

// sendOp is one queued reliable packet. Ops are recycled through a
// per-destination free list (see destState.free): they are allocated
// and released under ds.mu, so the list needs no locking of its own
// and the steady-state send path allocates no op.
type sendOp struct {
	seq   uint64
	ptype wire.PacketType
	flags byte
	// held: a selective ack showed the receiver holding the op. resent:
	// the op was resent for a hole a selective ack showed, so later acks
	// showing the same hole resend it no more. A stream reset or a
	// resume clears both. (Beside flags, they keep the op in 64 bytes.)
	held, resent bool

	bufp *[]byte // marshalled packet, pooled
	comp *Completion
	next *sendOp // free-list link
	// sentAt is the op's first transmission under its sequence number.
	// An op with FlagRetransmit set was sent again since (timer round,
	// hole resend, resume), so its ack times no round trip (Karn's
	// rule).
	sentAt time.Time
}

// maxFreeOps bounds a destination's op free list; churn beyond it falls
// back to the garbage collector.
const maxFreeOps = 256

// settleOp resolves an op's completion and drops the op's hold on it:
// a give-up settles an op that may later resume under a fresh one.
func settleOp(op *sendOp, err error) {
	op.comp.settle(err)
	op.comp = nil
}

func (op *sendOp) payload() []byte {
	b := *op.bufp
	return b[wire.HeaderLen : len(b)-wire.TrailerLen]
}

// destState is the per-destination sender state machine.
type destState struct {
	id ident.ID

	mu      sync.Mutex
	epoch   byte
	nextSeq uint64
	// queue[head:] holds the unacked ops in seq order, the first
	// inflight of them transmitted. A pop advances head; a push into a
	// full array at least half popped moves the ops to its front, so a
	// queue in steady state keeps one backing array.
	queue    []*sendOp
	head     int
	inflight int
	stash    []*sendOp // ops failed by give-up, resumable by identical resend
	free     *sendOp   // recycled ops (guarded by mu like the queue)
	nfree    int
	attempts int       // retransmit rounds since last ack progress
	gapAcks  int       // consecutive acks regressed below the window base
	holes    bool      // an ack showed an op missing below a held one
	deadline time.Time // retransmit deadline while inflight > 0
	gone     bool      // forgotten or channel closed

	// The retransmit timer's estimator (RFC 6298 §2): srtt is zero
	// until the first sample, and rto is Config.RetryTimeout until then;
	// a timer round doubles rto until the next sample or give-up.
	// progressAt (last ack progress, or first transmission since)
	// starts the give-up horizon.
	srtt, rttvar, rto time.Duration
	progressAt        time.Time

	notify chan struct{} // kicks the sender goroutine, cap 1
}

// getOpLocked pops a recycled op or allocates one. Caller holds ds.mu.
func (ds *destState) getOpLocked() *sendOp {
	if op := ds.free; op != nil {
		ds.free = op.next
		ds.nfree--
		op.next = nil
		return op
	}
	return new(sendOp)
}

// putOpLocked recycles a resolved op whose buffer and completion have
// already been handed back. Caller holds ds.mu.
func (ds *destState) putOpLocked(op *sendOp) {
	if ds.nfree >= maxFreeOps {
		return
	}
	*op = sendOp{next: ds.free}
	ds.free = op
	ds.nfree++
}

// queued returns the unacked ops, oldest first. Caller holds ds.mu.
func (ds *destState) queued() []*sendOp { return ds.queue[ds.head:] }

// pushLocked appends an op to the queue. Caller holds ds.mu.
func (ds *destState) pushLocked(op *sendOp) {
	if len(ds.queue) == cap(ds.queue) && ds.head >= len(ds.queue)/2 {
		n := copy(ds.queue, ds.queue[ds.head:])
		clear(ds.queue[n:])
		ds.queue, ds.head = ds.queue[:n], 0
	}
	ds.queue = append(ds.queue, op)
}

// popLocked removes the oldest op of a non-empty queue. Caller holds
// ds.mu.
func (ds *destState) popLocked() *sendOp {
	op := ds.queue[ds.head]
	ds.queue[ds.head] = nil
	ds.head++
	if ds.head == len(ds.queue) {
		ds.queue, ds.head = ds.queue[:0], 0
	}
	return op
}

func (ds *destState) kick() {
	select {
	case ds.notify <- struct{}{}:
	default:
	}
}

// epochFloor is what Forget leaves of a peer's streams, so that no
// straggler of a forgotten stream reaches a fresh one: out is the epoch
// the next stream to the peer opens under, and in, once inSet, the
// oldest epoch a new stream from the peer may use.
type epochFloor struct {
	out, in byte
	inSet   bool
}

// recvState is the per-sender receiver ordering state.
type recvState struct {
	epoch byte
	cum   uint64 // highest contiguous seq delivered
	buf   map[uint64]*wire.Packet
}

// Channel is a reliable packet conduit over one transport endpoint.
type Channel struct {
	tr  transport.Transport
	cfg Config
	ctr counters
	// horizon is how long a destination must go without ack progress
	// before it may give up (giveUpHorizon).
	horizon time.Duration

	// pktPool recycles inbound packets: the receive loop decodes every
	// datagram into a pooled packet (no per-packet struct or payload
	// clone allocation) and the consumer releases it after delivery.
	pktPool *wire.PacketPool

	mu     sync.Mutex
	dests  map[ident.ID]*destState
	closed bool

	// rmu guards the receiver ordering state separately from the
	// sender maps: the receive path must not serialise against the
	// SendAsync hot path. The epoch floors Forget leaves are under it
	// too, both directions in one map.
	rmu    sync.Mutex
	rst    map[ident.ID]*recvState
	floors map[ident.ID]epochFloor

	// inbox queues released packets for Recv; its Done channel is the
	// channel's stop signal.
	inbox *transport.Inbox[*wire.Packet]
	wg    sync.WaitGroup
}

// New wraps a transport endpoint and starts the receive loop. Close the
// channel (not the transport directly) when done.
func New(tr transport.Transport, cfg Config) *Channel {
	def := defaultConfig()
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = def.RetryTimeout
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = def.MaxRetries
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = def.QueueDepth
	}
	if cfg.MaxRetryTimeout <= 0 {
		cfg.MaxRetryTimeout = 10 * cfg.RetryTimeout
	}
	c := &Channel{
		tr:      tr,
		cfg:     cfg,
		horizon: giveUpHorizon(cfg),
		pktPool: wire.NewPacketPool(),
		dests:   make(map[ident.ID]*destState),
		rst:     make(map[ident.ID]*recvState),
		floors:  make(map[ident.ID]epochFloor),
		inbox:   transport.NewInbox(cfg.QueueDepth, ErrClosed, (*wire.Packet).Release),
	}
	c.wg.Add(1)
	go c.recvLoop()
	return c
}

// LocalID returns the underlying endpoint's ID.
func (c *Channel) LocalID() ident.ID { return c.tr.LocalID() }

// Send transmits a reliable packet of the given type and payload to dst
// and blocks until the destination acknowledges it or the retry budget
// is exhausted. Sends to one destination are delivered in enqueue
// order (FIFO).
func (c *Channel) Send(dst ident.ID, ptype wire.PacketType, payload []byte) error {
	comp := c.SendAsync(dst, ptype, payload)
	err := comp.Wait()
	comp.Recycle() // Send owns the handle; nobody else can observe it
	return err
}

// NewCompletion returns an unresolved pooled completion for callers
// that layer their own asynchronous contracts over the channel (the
// client's publish batcher resolves one per event when the carrying
// batch settles). Resolve it with Resolve; recycle as usual.
func NewCompletion() *Completion { return newCompletion() }

// Resolve settles a completion obtained from NewCompletion.
func (c *Completion) Resolve(err error) { c.settle(err) }

// SendAsync enqueues a reliable packet for dst and returns immediately
// with a Completion that resolves when the packet is acknowledged or
// fails. The payload is copied before SendAsync returns, so the caller
// may recycle its buffer at once. Packets to one destination are
// delivered in enqueue order; up to Config.Window of them are kept in
// flight concurrently.
func (c *Channel) SendAsync(dst ident.ID, ptype wire.PacketType, payload []byte) *Completion {
	comp, err := c.sendReliable(dst, ptype, 0, payload)
	if err != nil {
		return failedCompletion(err)
	}
	return comp
}

// SendBatchAsync enqueues a reliable batch packet (wire.FlagBatch) of
// already-framed deliveries for dst: the payload must begin with a
// batch prologue (wire.AppendBatchHeader) followed by frames
// (wire.AppendBatchEvent / AppendBatchFrame). ptype names what the
// frames are — wire.PktEvent for bare event encodings,
// wire.PktEventDurable for cursor-prefixed ones — and a batch is
// homogeneous in it. The channel stamps the freshest piggybacked
// cumulative ack for dst's inbound stream into the prologue at every
// transmission, so a bidirectional flow acknowledges without dedicated
// ack packets. Like SendAsync the payload is copied before return, the
// batch gets one sequence number (acknowledged and retransmitted as a
// unit), and the completion resolves when the whole batch is acked.
func (c *Channel) SendBatchAsync(dst ident.ID, ptype wire.PacketType, payload []byte) *Completion {
	comp, err := c.sendReliable(dst, ptype, wire.FlagBatch, payload)
	if err != nil {
		return failedCompletion(err)
	}
	c.ctr.batchesSent.Add(1)
	return comp
}

// sendReliable resolves the destination state and enqueues one
// reliable packet, retrying when the state is torn down concurrently.
func (c *Channel) sendReliable(dst ident.ID, ptype wire.PacketType, flags byte, payload []byte) (*Completion, error) {
	if dst.IsBroadcast() {
		return nil, errBroadcast
	}
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		ds, ok := c.dests[dst]
		if !ok {
			c.rmu.Lock()
			epoch := c.floors[dst].out
			c.rmu.Unlock()
			ds = &destState{id: dst, epoch: epoch, rto: c.cfg.RetryTimeout, notify: make(chan struct{}, 1)}
			c.dests[dst] = ds
			c.wg.Add(1)
			go c.runSender(ds)
		}
		c.mu.Unlock()
		if comp, ok, err := c.enqueue(ds, ptype, flags, payload); ok {
			return comp, err
		}
		// The destination state was torn down (Forget or Close) while
		// we held it: retry against fresh state.
	}
}

// enqueue assigns a sequence number, marshals the packet into a pooled
// buffer and appends it to the destination queue. It reports !ok when
// ds is no longer the live state for this destination; a non-nil error
// is an immediate failure (backlog, marshal).
func (c *Channel) enqueue(ds *destState, ptype wire.PacketType, flags byte, payload []byte) (*Completion, bool, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.gone {
		return nil, false, nil
	}
	if n := len(ds.queued()); n >= maxPending {
		return nil, true, fmt.Errorf("%w: %d pending to %s", errBacklog, n, ds.id)
	}
	var op *sendOp
	if len(ds.stash) > 0 {
		s := ds.stash[0]
		if s.ptype == ptype && stashMatches(s, flags, payload) {
			// Identical resend of a failed packet: resume its original
			// sequence number so a receiver that already delivered it
			// (acks lost) dedups instead of delivering twice.
			ds.stash = ds.stash[1:]
			op = s
			op.held, op.resent = false, false
			op.flags |= wire.FlagRetransmit
			_ = wire.PatchHeader(*op.bufp, op.flags, ds.epoch, op.seq)
			c.ctr.resumed.Add(1)
		} else {
			// Divergent traffic after give-up: the failed packets are
			// truly abandoned. Restart the outbound stream under a new
			// epoch so the receiver does not wait on the gap forever.
			c.resetStreamLocked(ds)
		}
	}
	if op == nil {
		ds.nextSeq++
		op = ds.getOpLocked()
		op.seq, op.ptype, op.flags = ds.nextSeq, ptype, flags
		bp := getBuf()
		pkt := wire.Packet{
			Type:    ptype,
			Flags:   flags,
			Epoch:   ds.epoch,
			Sender:  c.tr.LocalID(),
			Seq:     op.seq,
			Payload: payload,
		}
		b, err := pkt.Marshal((*bp)[:0])
		if err != nil {
			putBuf(bp)
			ds.nextSeq--
			ds.putOpLocked(op)
			return nil, true, fmt.Errorf("reliable marshal: %w", err)
		}
		*bp = b
		op.bufp = bp
	}
	comp := newCompletion()
	op.comp = comp
	ds.pushLocked(op)
	c.ctr.sent.Add(1)
	ds.kick()
	return comp, true, nil
}

// stashMatches reports whether a stashed give-up op carries the same
// logical payload as a fresh send, the trigger for resuming its
// original sequence number. For batch packets the comparison covers
// the frames region only: the prologue's piggybacked ack is stamped at
// transmit time, so it legitimately differs between the stashed bytes
// and a redelivery re-encode.
func stashMatches(s *sendOp, flags byte, payload []byte) bool {
	sp := s.payload()
	if s.flags&wire.FlagBatch != flags&wire.FlagBatch {
		return false
	}
	if flags&wire.FlagBatch != 0 {
		a, err1 := wire.BatchFrames(sp)
		b, err2 := wire.BatchFrames(payload)
		return err1 == nil && err2 == nil && bytes.Equal(a, b)
	}
	return bytes.Equal(sp, payload)
}

// resetStreamLocked abandons the stash, bumps the epoch, and renumbers
// any still-queued packets into it. Caller holds ds.mu.
func (c *Channel) resetStreamLocked(ds *destState) {
	for _, s := range ds.stash {
		putBuf(s.bufp)
		s.bufp = nil
		ds.putOpLocked(s) // already settled by the give-up
	}
	ds.stash = nil
	ds.epoch++
	ds.nextSeq = 0
	for _, op := range ds.queued() {
		ds.nextSeq++
		op.seq = ds.nextSeq
		// An ack can only answer the packet under its new epoch and
		// sequence number, so the fill loop times it afresh.
		op.sentAt = time.Time{}
		op.held, op.resent = false, false
		_ = wire.PatchHeader(*op.bufp, op.flags, ds.epoch, op.seq)
	}
	ds.inflight = 0 // retransmit everything under the new epoch
	ds.attempts = 0
	ds.gapAcks = 0
	ds.holes = false
	ds.deadline = time.Time{}
	c.ctr.streamResets.Add(1)
}

// giveUpHorizon is how long the unmeasured schedule takes to spend the
// retry budget: MaxRetries+1 timeouts doubling from RetryTimeout, each
// capped at MaxRetryTimeout.
func giveUpHorizon(cfg Config) time.Duration {
	var h time.Duration
	d := cfg.RetryTimeout
	for i := 0; i <= cfg.MaxRetries; i++ {
		h += d
		d = min(2*d, cfg.MaxRetryTimeout)
	}
	return h
}

// sampleRTTLocked folds one round-trip sample into the destination's
// estimator (RFC 6298 §2.2–2.3, α = 1/8, β = 1/4) and recomputes its
// RTO from it. Caller holds ds.mu.
func (c *Channel) sampleRTTLocked(ds *destState, r time.Duration) {
	if ds.srtt == 0 {
		ds.srtt, ds.rttvar = r, r/2
	} else {
		ds.rttvar += (max(ds.srtt-r, r-ds.srtt) - ds.rttvar) / 4
		ds.srtt += (r - ds.srtt) / 8
	}
	c.resetRTOLocked(ds)
	c.ctr.rttSamples.Add(1)
}

// resetRTOLocked sets the destination's RTO from its estimator, without
// the backoff of earlier timer rounds: SRTT + 4·RTTVAR clamped to
// [minRTO, MaxRetryTimeout], or RetryTimeout before the first sample.
// Caller holds ds.mu.
func (c *Channel) resetRTOLocked(ds *destState) {
	ds.rto = c.cfg.RetryTimeout
	if ds.srtt != 0 {
		ds.rto = min(max(ds.srtt+4*ds.rttvar, minRTO), c.cfg.MaxRetryTimeout)
	}
}

// retransmitRoundLocked resends the in-flight packets the receiver is
// not known to hold, or every one of them from the second round without
// ack progress on (a held mark is advisory),
// doubles the destination's RTO and arms the next deadline on it, never
// past the give-up horizon once the budget's rounds are spent. Caller
// holds ds.mu.
func (c *Channel) retransmitRoundLocked(ds *destState, now time.Time) {
	for _, op := range ds.queued()[:ds.inflight] {
		if !op.held || ds.attempts > 0 {
			c.resendLocked(ds, op)
			c.ctr.retransmits.Add(1)
		}
	}
	ds.attempts++
	// Karn & Partridge's timer backoff (RFC 6298 §5.5): the doubled RTO
	// stands until a valid sample replaces it, so a link that has grown
	// slower than its RTO is timed again instead of resent forever.
	ds.rto = min(2*ds.rto, c.cfg.MaxRetryTimeout)
	ds.deadline = now.Add(ds.rto)
	if h := ds.progressAt.Add(c.horizon); ds.attempts >= c.cfg.MaxRetries && h.Before(ds.deadline) {
		ds.deadline = h
	}
}

// resendHolesLocked resends, once each, the in-flight packets the
// receiver lacks below the highest one it holds. Caller holds ds.mu.
func (c *Channel) resendHolesLocked(ds *destState) {
	q := ds.queued()
	top := ds.inflight - 1
	for top >= 0 && !q[top].held {
		top--
	}
	for _, op := range q[:max(top, 0)] {
		if !op.held && !op.resent {
			op.resent = true
			c.resendLocked(ds, op)
			c.ctr.fastRetransmits.Add(1)
		}
	}
}

// resendLocked transmits an op again, marked as a retransmission.
// Caller holds ds.mu.
func (c *Channel) resendLocked(ds *destState, op *sendOp) {
	op.flags |= wire.FlagRetransmit
	_ = wire.PatchHeader(*op.bufp, op.flags, ds.epoch, op.seq)
	c.stampBatchAck(ds, op)
	c.transmit(ds.id, *op.bufp)
}

// transmit sends one marshalled packet. Most transport-level errors
// are not surfaced: on a datagram network a failed send is
// indistinguishable from loss, and the retransmission machinery
// recovers either way. ErrTooLarge is the exception — it is permanent
// for the packet, so the caller fails it immediately rather than
// burning the retry budget.
func (c *Channel) transmit(dst ident.ID, buf []byte) error {
	err := c.tr.Send(dst, buf)
	if err != nil && errors.Is(err, transport.ErrTooLarge) {
		return err
	}
	return nil
}

// runSender drains one destination's queue: it keeps up to Window
// packets in flight, retransmits them on a single per-destination
// deadline with exponential backoff, resends the holes selective acks
// show, and fails the queue when the retry budget is exhausted. Every
// packet — window fill, retransmit round, hole resend — goes out as one
// transport Send.
func (c *Channel) runSender(ds *destState) {
	defer c.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerArmed := false
	for {
		ds.mu.Lock()
		if ds.gone {
			ds.mu.Unlock()
			return
		}
		now := time.Now()
		if ds.inflight > 0 && !ds.deadline.IsZero() && !now.Before(ds.deadline) {
			switch {
			case ds.attempts >= c.cfg.MaxRetries && !now.Before(ds.progressAt.Add(c.horizon)):
				c.giveUpLocked(ds)
			case c.cfg.MaxRetries == 0:
				// Retransmission is off: only the horizon is left to
				// wait out.
				ds.deadline = ds.progressAt.Add(c.horizon)
			default:
				c.retransmitRoundLocked(ds, now)
			}
		}
		if ds.holes {
			ds.holes = false
			c.resendHolesLocked(ds)
		}
		for ds.inflight < c.cfg.Window && ds.inflight < len(ds.queued()) {
			op := ds.queued()[ds.inflight]
			c.stampBatchAck(ds, op)
			if err := c.transmit(ds.id, *op.bufp); err != nil {
				// Permanently unsendable (over the transport MTU):
				// fail this op now and close the sequence gap by
				// renumbering the untransmitted ops behind it.
				c.ctr.failures.Add(1)
				settleOp(op, fmt.Errorf("reliable send: %w", err))
				putBuf(op.bufp)
				op.bufp = nil
				rest := ds.queued()[ds.inflight:]
				copy(rest, rest[1:])
				rest[len(rest)-1] = nil
				ds.queue = ds.queue[:len(ds.queue)-1]
				for _, later := range rest[:len(rest)-1] {
					later.seq--
					_ = wire.PatchHeader(*later.bufp, later.flags, ds.epoch, later.seq)
				}
				ds.nextSeq--
				ds.putOpLocked(op)
				continue
			}
			if op.sentAt.IsZero() {
				op.sentAt = now
			}
			if ds.inflight == 0 {
				ds.attempts = 0
				ds.progressAt = now
				ds.deadline = now.Add(ds.rto)
			}
			ds.inflight++
		}
		wait := time.Duration(-1)
		if ds.inflight > 0 {
			wait = time.Until(ds.deadline)
			if wait < 0 {
				wait = 0
			}
		}
		ds.mu.Unlock()

		if timerArmed && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timerArmed = false
		if wait >= 0 {
			timer.Reset(wait)
			timerArmed = true
		}
		select {
		case <-ds.notify:
		case <-timer.C:
			timerArmed = false
		case <-c.inbox.Done():
			return
		}
	}
}

// giveUpLocked fails every queued packet with ErrGaveUp and moves them
// to the resume stash. Caller holds ds.mu.
func (c *Channel) giveUpLocked(ds *destState) {
	failed := make([]*sendOp, 0, len(ds.queued()))
	for len(ds.queued()) > 0 {
		op := ds.popLocked()
		c.ctr.failures.Add(1) // before the waiter can read Stats
		settleOp(op, fmt.Errorf("%w: %s epoch=%d seq=%d to %s",
			ErrGaveUp, op.ptype, ds.epoch, op.seq, ds.id))
		failed = append(failed, op)
	}
	// Failed queue entries carry lower sequence numbers than whatever
	// remains of an earlier stash, so they go in front.
	ds.stash = append(failed, ds.stash...)
	ds.inflight = 0
	ds.attempts = 0
	ds.holes = false
	ds.deadline = time.Time{}
	// The backoff ends with the episode it grew in: the next stream to
	// this destination starts from the estimator's RTO again.
	c.resetRTOLocked(ds)
}

// failPendingLocked resolves every queued packet with err and drops all
// sender state. Caller holds ds.mu.
func (c *Channel) failPendingLocked(ds *destState, err error) {
	for len(ds.queued()) > 0 {
		op := ds.popLocked()
		settleOp(op, err)
		putBuf(op.bufp)
		op.bufp = nil
	}
	ds.inflight = 0
	for _, s := range ds.stash {
		putBuf(s.bufp)
		s.bufp = nil
	}
	ds.stash = nil
	ds.deadline = time.Time{}
}

// SendUnreliable transmits a fire-and-forget packet (FlagNoAck). It may
// be broadcast.
func (c *Channel) SendUnreliable(dst ident.ID, ptype wire.PacketType, payload []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.mu.Unlock()
	c.ctr.unreliableOut.Add(1)
	pkt := wire.Packet{
		Type:    ptype,
		Flags:   wire.FlagNoAck,
		Sender:  c.tr.LocalID(),
		Payload: payload,
	}
	bp := getBuf()
	b, err := pkt.Marshal((*bp)[:0])
	if err != nil {
		putBuf(bp)
		return fmt.Errorf("reliable marshal: %w", err)
	}
	*bp = b
	sendErr := c.tr.Send(dst, b)
	putBuf(bp)
	if sendErr != nil && !errors.Is(sendErr, transport.ErrUnknownDest) {
		return fmt.Errorf("unreliable send: %w", sendErr)
	}
	return nil
}

// Recv blocks for the next delivered packet. Reliable packets have been
// acknowledged, deduplicated and reordered into per-sender sequence
// order; unreliable ones are passed through. Packets come from the
// channel's inbound pool: a consumer that calls pkt.Release once done
// (after fully decoding or copying the payload) recycles the packet,
// keeping the steady-state receive path allocation-free. Not releasing
// is safe — the packet just falls to the garbage collector — but shows
// up as an acquired/recycled gap in Stats.
func (c *Channel) Recv() (*wire.Packet, error) { return c.inbox.Get() }

// Inject queues p in the inbox behind every packet the channel has
// taken so far, so Recv hands it out after them. It reports false when
// the inbox is closed or full.
func (c *Channel) Inject(p *wire.Packet) bool { return c.inbox.Put(p) }

// RecvTimeout is Recv with a deadline.
func (c *Channel) RecvTimeout(d time.Duration) (*wire.Packet, error) { return c.inbox.GetTimeout(d) }

// pending reports how many reliable sends are still unresolved: queued
// or in flight towards any destination, not yet acknowledged and not
// yet failed. Stashed give-up packets (kept only for resume-by-
// identical-resend) are already settled and therefore not counted. A
// channel whose pending has reached zero has settled every send a
// caller could still be waiting on — the precondition for a graceful
// shutdown.
func (c *Channel) pending() int {
	c.mu.Lock()
	dests := make([]*destState, 0, len(c.dests))
	for _, ds := range c.dests {
		dests = append(dests, ds)
	}
	c.mu.Unlock()
	pending := 0
	for _, ds := range dests {
		ds.mu.Lock()
		pending += len(ds.queued())
		ds.mu.Unlock()
	}
	return pending
}

// errDrainTimeout reports that Drain gave up before the send queues
// emptied.
var errDrainTimeout = errors.New("reliable: drain timed out")

// Drain waits until every queued reliable send has resolved (been
// acknowledged or failed by the retry budget) or the timeout lapses.
// It is the graceful half of shutdown: Drain then Close lets in-flight
// deliveries finish instead of failing them with ErrClosed. Drain does
// not stop new sends from being enqueued; quiesce callers first.
func (c *Channel) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.pending() == 0 {
			return nil
		}
		if c.inbox.Closed() {
			// Close already ran: every pending send has been failed.
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d sends still pending", errDrainTimeout, c.pending())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Forget discards reliability state for a purged member so that a
// returning device with the same ID starts a fresh stream. Packets
// still pending towards the member fail with ErrGaveUp. An epoch floor
// survives in each direction: the next stream to the same ID opens
// under a fresh epoch, and a packet of the forgotten inbound stream
// arriving late is refused rather than taken for a new stream's, so
// stragglers of the old streams cannot pollute the new ones.
func (c *Channel) Forget(id ident.ID) {
	// Lock order c.mu, then ds.mu, then rmu (see stampBatchAck). Bumping
	// the outbound floor in the critical section that removes the dest
	// guarantees a racing SendAsync either finds the old state (and
	// fails, retrying against fresh state) or opens the new epoch —
	// never a fresh stream under the forgotten stream's epoch.
	c.mu.Lock()
	defer c.mu.Unlock()
	ds := c.dests[id]
	if ds != nil {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		ds.gone = true
		c.failPendingLocked(ds, fmt.Errorf("%w: %s forgotten", ErrGaveUp, id))
		ds.kick()
		delete(c.dests, id)
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	st := c.rst[id]
	if ds == nil && st == nil {
		return
	}
	f := c.floors[id]
	if ds != nil {
		f.out = ds.epoch + 1
	}
	if st != nil {
		for _, parked := range st.buf {
			parked.Release()
		}
		delete(c.rst, id)
		f.in, f.inSet = st.epoch+1, true
	}
	c.floors[id] = f
}

// Close stops the machinery, fails every in-flight send with ErrClosed
// promptly, and closes the underlying transport.
func (c *Channel) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	dests := make([]*destState, 0, len(c.dests))
	for _, ds := range c.dests {
		dests = append(dests, ds)
	}
	c.mu.Unlock()
	c.inbox.Close()
	// Wake blocked senders before tearing the transport down: no new
	// op can be enqueued (closed is set), and marking each dest gone
	// resolves the races with in-progress enqueues.
	for _, ds := range dests {
		ds.mu.Lock()
		ds.gone = true
		c.failPendingLocked(ds, ErrClosed)
		ds.kick()
		ds.mu.Unlock()
	}
	err := c.tr.Close()
	c.wg.Wait()
	// The receive loop has exited: packets parked in reorder buffers
	// can never be delivered now, so recycle them — a well-behaved
	// consumer that drains Recv then sees acquired == recycled.
	c.rmu.Lock()
	for _, st := range c.rst {
		for seq, parked := range st.buf {
			delete(st.buf, seq)
			parked.Release()
		}
	}
	c.rmu.Unlock()
	return err
}

func (c *Channel) recvLoop() {
	defer c.wg.Done()
	for {
		dg, err := c.tr.Recv()
		if err != nil {
			return
		}
		// Pooled decode: the packet copies the payload into its own
		// reusable buffer, so the datagram buffer goes straight back
		// to the transport pool and no per-packet allocation remains.
		pkt, err := c.pktPool.Unmarshal(dg.Data)
		dg.Recycle()
		if err != nil {
			// Corrupted or foreign datagram: drop silently, as a
			// datagram network must tolerate.
			continue
		}
		c.handle(pkt)
	}
}

func (c *Channel) handle(pkt *wire.Packet) {
	switch {
	case pkt.Type == wire.PktAck:
		c.applyAck(pkt.Sender, pkt.Epoch, pkt.Seq, wire.AckSack(pkt))
		pkt.Release()
	case pkt.Flags&wire.FlagNoAck != 0:
		c.ctr.unreliableIn.Add(1)
		c.inbox.Put(pkt) // a full inbox sheds it, counted in InboxDropped
	default:
		if pkt.Flags&wire.FlagBatch != 0 && (pkt.Type == wire.PktEvent || pkt.Type == wire.PktEventDurable) {
			// A batch prologue may piggyback the peer's cumulative ack
			// for our own outbound stream: apply it before the data
			// path, exactly as if a standalone PktAck had arrived.
			if ep, cum, ok := wire.BatchAck(pkt.Payload); ok {
				c.ctr.piggybackAcks.Add(1)
				c.applyAck(pkt.Sender, ep, cum, 0)
			}
		}
		c.handleData(pkt)
	}
}

// applyAck applies a cumulative acknowledgement — standalone PktAck or
// piggybacked batch prologue — to the destination's send queue, and a
// standalone ack's selective-ack bitmap (wire.AckSack; 0 for none) to
// the ops in flight past it.
func (c *Channel) applyAck(sender ident.ID, epoch byte, cum, sack uint64) {
	c.mu.Lock()
	ds := c.dests[sender]
	c.mu.Unlock()
	if ds == nil {
		c.ctr.staleAcks.Add(1)
		return
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if epoch != ds.epoch {
		if epochNewer(epoch, ds.epoch) && !ds.gone {
			// The receiver acknowledges an epoch this channel has never
			// used: its ordering state survives from a previous
			// incarnation of this endpoint restarted under the same
			// identity. Adopt the epoch and reset past it so the next
			// transmission opens a provably fresh stream.
			ds.epoch = epoch
			c.resetStreamLocked(ds)
			ds.kick()
			return
		}
		c.ctr.staleAcks.Add(1)
		return
	}
	if cum > ds.nextSeq && !ds.gone {
		// An ack covering sequence numbers this stream never sent can
		// only come from a receiver replaying cumulative state left by
		// a previous incarnation of this endpoint. Settling against it
		// would report success for packets the receiver silently
		// dropped as duplicates, so restart the stream under a fresh
		// epoch instead; the receiver resets on the first new-epoch
		// packet and the stream converges in one round trip.
		c.resetStreamLocked(ds)
		ds.kick()
		return
	}
	progress := 0
	// The newest settled op times the round trip, unless an op this ack
	// settles was sent more than once: the ack may answer the resend.
	var sentAt time.Time
	timed := true
	for len(ds.queued()) > 0 && ds.queued()[0].seq <= cum {
		op := ds.popLocked()
		if ds.inflight > 0 {
			ds.inflight--
		}
		timed = timed && op.flags&wire.FlagRetransmit == 0 && !op.sentAt.IsZero()
		sentAt = op.sentAt
		putBuf(op.bufp)
		op.bufp = nil
		settleOp(op, nil) // success
		ds.putOpLocked(op)
		progress++
	}
	q := ds.queued()
	if len(q) > 0 && q[0].seq == cum+1 {
		// The receiver waits for the base, so it does not hold it, even
		// if an earlier ack said so: its inbox refused the packet and
		// shed it.
		q[0].held = false
		if sack != 0 {
			c.markHeldLocked(ds, cum, sack)
		}
	}
	switch {
	case progress > 0:
		c.ctr.acked.Add(uint64(progress))
		now := time.Now()
		if timed {
			c.sampleRTTLocked(ds, now.Sub(sentAt))
		}
		ds.attempts = 0
		ds.gapAcks = 0
		ds.progressAt = now
		if ds.inflight > 0 {
			ds.deadline = now.Add(ds.rto)
		} else {
			ds.deadline = time.Time{}
		}
		ds.kick()
	case ds.inflight > 0 && cum+1 == q[0].seq:
		// Duplicate cumulative ack: the receiver is waiting for our
		// base packet, and its selective ack, if any, said what else.
		ds.gapAcks = 0
	case ds.inflight > 0 && cum+1 < q[0].seq:
		// The receiver is waiting for packets below our window base —
		// sequence numbers this stream already settled and will never
		// retransmit, so the gap is unfillable: its cumulative state
		// regressed (the receiver restarted, or its state was purged).
		// One stray reordered ack must not reset a healthy stream, so
		// demand a persistent signal: repeated regressed acks, every one
		// of them arriving behind a retransmission round, with no
		// progress in between. Regressed acks seen while no round is
		// outstanding are reordered stragglers of settled packets and do
		// not count — otherwise they pile up harmlessly and the first
		// straggler after the next timer round resets a healthy stream.
		if ds.attempts == 0 {
			break
		}
		ds.gapAcks++
		if ds.gapAcks >= 3 {
			c.resetStreamLocked(ds)
			ds.kick()
		}
	case len(q) == 0:
		c.ctr.staleAcks.Add(1)
	}
}

// markHeldLocked marks the in-flight ops a selective ack shows the
// receiver holding (bit i: seq cum+2+i) and has runSender resend at once
// any op it lacks below one it holds, unless already resent for that
// hole. Caller holds ds.mu.
func (c *Channel) markHeldLocked(ds *destState, cum, sack uint64) {
	held, hole := false, false
	q := ds.queued()
	for i := ds.inflight - 1; i >= 0; i-- {
		op := q[i]
		if d := op.seq - cum - 2; d < 64 && sack&(1<<d) != 0 {
			op.held = true
		}
		held = held || op.held
		hole = hole || held && !op.held && !op.resent
	}
	if hole && c.cfg.MaxRetries > 0 {
		ds.holes = true
		ds.kick()
	}
}

// stampBatchAck patches the freshest cumulative ack for the
// destination's inbound stream into a queued batch packet just before
// transmission (no-op for non-batch ops). Caller holds ds.mu; rmu
// nests inside it here, and no path acquires ds.mu while holding rmu,
// so the ordering is acyclic.
func (c *Channel) stampBatchAck(ds *destState, op *sendOp) {
	if op.flags&wire.FlagBatch == 0 {
		return
	}
	c.rmu.Lock()
	st := c.rst[ds.id]
	if st == nil {
		c.rmu.Unlock()
		return
	}
	epoch, cum := st.epoch, st.cum
	c.rmu.Unlock()
	_ = wire.PatchBatchAck(*op.bufp, epoch, cum)
}

// epochNewer reports whether a is a more recent stream epoch than b,
// using mod-256 serial-number arithmetic.
func epochNewer(a, b byte) bool {
	return a != b && byte(a-b) < 128
}

// handleData runs the receiver half of the ARQ: cumulative state,
// reorder buffer, strictly in-order release to Recv, and a cumulative
// acknowledgement back to the sender.
func (c *Channel) handleData(pkt *wire.Packet) {
	// Capture the sender before the switch: delivering or releasing
	// the pooled packet hands ownership away, so its fields must not
	// be read afterwards.
	sender := pkt.Sender
	c.rmu.Lock()
	st, ok := c.rst[sender]
	if !ok {
		// First contact with this sender, or the first since Forget: a
		// packet below the floor Forget left is a straggler of the
		// forgotten stream. Refuse it, and name the floor in the ack; a
		// live sender behind the floor takes that as its cue to open a
		// fresh stream (applyAck).
		if f := c.floors[sender]; f.inSet && pkt.Epoch != f.in && !epochNewer(pkt.Epoch, f.in) {
			c.ctr.staleEpoch.Add(1)
			c.rmu.Unlock()
			pkt.Release()
			c.sendAck(sender, f.in, 0, 0)
			return
		}
		st = &recvState{epoch: pkt.Epoch}
		c.rst[sender] = st
	}
	if pkt.Epoch != st.epoch {
		if epochNewer(pkt.Epoch, st.epoch) {
			// The sender restarted its stream; reset streams always
			// renumber from 1, so expect exactly that. Parked packets
			// of the dead epoch go back to the pool.
			st.epoch = pkt.Epoch
			st.cum = 0
			for seq, parked := range st.buf {
				delete(st.buf, seq)
				parked.Release()
			}
		} else {
			c.ctr.staleEpoch.Add(1)
			epoch, cum := st.epoch, st.cum
			c.rmu.Unlock()
			pkt.Release()
			// Acknowledge with this receiver's actual position: a
			// restarted sender stuck behind state we hold for its
			// previous incarnation learns of it from this ack and
			// resets its stream (see handleAck).
			c.sendAck(sender, epoch, cum, 0)
			return
		}
	}
	switch {
	case pkt.Seq <= st.cum:
		c.ctr.dupsDropped.Add(1)
		pkt.Release()
	case pkt.Seq == st.cum+1:
		// The cumulative ack covers only what the inbox took: a packet
		// a full inbox refuses stays unacknowledged, and the sender
		// retransmits it.
		for next := pkt; next != nil && c.inbox.Put(next); {
			st.cum++
			c.ctr.received.Add(1)
			if next = st.buf[st.cum+1]; next != nil {
				delete(st.buf, st.cum+1)
			}
		}
	default: // gap: park the packet until the hole fills
		if st.buf == nil {
			st.buf = make(map[uint64]*wire.Packet)
		}
		if _, dup := st.buf[pkt.Seq]; dup {
			c.ctr.dupsDropped.Add(1)
			pkt.Release()
		} else if len(st.buf) < reorderDepth {
			st.buf[pkt.Seq] = pkt
			c.ctr.buffered.Add(1)
		} else {
			// Buffer full — drop; sender retransmission recovers.
			c.ctr.reorderDropped.Add(1)
			pkt.Release()
		}
	}
	epoch, cum, sack := st.epoch, st.cum, st.sack()
	c.rmu.Unlock()
	// Always (re-)acknowledge, including for duplicates: the sender
	// may have missed the previous ack.
	c.sendAck(sender, epoch, cum, sack)
}

// sack is the reorder buffer as a selective-ack bitmap: bit i set when
// the buffer holds seq cum+2+i (cum+1 is never parked). Caller holds rmu.
func (st *recvState) sack() uint64 {
	var bits uint64
	for seq := range st.buf {
		if d := seq - st.cum - 2; d < 64 {
			bits |= 1 << d
		}
	}
	return bits
}

// sendAck emits a cumulative acknowledgement covering every packet of
// the epoch up to and including cum, with a selective-ack bitmap of the
// packets held past it when sack is not 0.
func (c *Channel) sendAck(dst ident.ID, epoch byte, cum, sack uint64) {
	ack := wire.Packet{
		Type:   wire.PktAck,
		Flags:  wire.FlagCumAck,
		Epoch:  epoch,
		Sender: c.tr.LocalID(),
		Seq:    cum,
	}
	var bits [8]byte
	if sack != 0 {
		ack.Flags |= wire.FlagSack
		ack.Payload = wire.AppendSack(bits[:0], sack)
	}
	bp := getBuf()
	b, err := ack.Marshal((*bp)[:0])
	if err == nil {
		*bp = b
		_ = c.tr.Send(dst, b) // loss handled by sender retry
	}
	putBuf(bp)
}
