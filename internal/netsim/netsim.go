package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/transport"
)

// Network is a simulated datagram network. Endpoints attach with an ID
// and exchange byte arrays subject to the configured link profiles.
// All methods are safe for concurrent use.
type Network struct {
	mu       sync.Mutex
	eps      map[ident.ID]*Endpoint
	def      Profile
	links    map[linkKey]Profile
	blocked  map[linkKey]bool
	isolated map[ident.ID]bool
	nextFree map[linkKey]time.Time // link busy-until, for bandwidth serialisation
	rng      *rand.Rand
	closed   bool
	stats    Stats

	// Delayed deliveries live in one pooled min-heap drained by a
	// single scheduler goroutine (started lazily on the first delayed
	// datagram) instead of one time.AfterFunc per datagram: on a link
	// with latency every packet used to cost a timer plus closure
	// allocation, which dominated the simulated E2E allocation profile.
	pending   delayHeap
	freeDel   *pendingDelivery
	delSeq    uint64
	schedOn   bool
	schedWake chan struct{}
	schedDone chan struct{}
}

// pendingDelivery is one scheduled datagram awaiting its deadline.
type pendingDelivery struct {
	at   time.Time
	seq  uint64 // FIFO tie-break among equal deadlines
	to   ident.ID
	dg   transport.Datagram
	next *pendingDelivery // free-list link
}

func (d *pendingDelivery) before(o *pendingDelivery) bool {
	if !d.at.Equal(o.at) {
		return d.at.Before(o.at)
	}
	return d.seq < o.seq
}

// delayHeap is a hand-rolled min-heap (container/heap would box every
// entry through an interface).
type delayHeap []*pendingDelivery

func (h *delayHeap) push(d *pendingDelivery) {
	*h = append(*h, d)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *delayHeap) pop() *pendingDelivery {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = nil
	s = s[:last]
	*h = s
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		small := i
		if left < len(s) && s[left].before(s[small]) {
			small = left
		}
		if right < len(s) && s[right].before(s[small]) {
			small = right
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// getDelLocked/putDelLocked recycle heap entries. Caller holds n.mu.
func (n *Network) getDelLocked() *pendingDelivery {
	if d := n.freeDel; d != nil {
		n.freeDel = d.next
		d.next = nil
		return d
	}
	return new(pendingDelivery)
}

func (n *Network) putDelLocked(d *pendingDelivery) {
	*d = pendingDelivery{next: n.freeDel}
	n.freeDel = d
}

type linkKey struct{ from, to ident.ID }

// Stats counts network activity since creation.
type Stats struct {
	Sent       uint64
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	BytesSent  uint64
}

// Option configures a Network.
type Option func(*Network)

// WithSeed fixes the RNG seed; simulations are deterministic given the
// seed and a single-goroutine send order.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// New builds a network whose links default to the given profile.
func New(def Profile, opts ...Option) *Network {
	n := &Network{
		eps:      make(map[ident.ID]*Endpoint),
		def:      def,
		links:    make(map[linkKey]Profile),
		blocked:  make(map[linkKey]bool),
		isolated: make(map[ident.ID]bool),
		nextFree: make(map[linkKey]time.Time),
		rng:      rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Attach creates an endpoint with the given ID.
func (n *Network) Attach(id ident.ID) (*Endpoint, error) {
	if id.IsNil() || id.IsBroadcast() {
		return nil, fmt.Errorf("netsim: cannot attach reserved ID %s", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	if _, dup := n.eps[id]; dup {
		return nil, fmt.Errorf("netsim: duplicate endpoint ID %s", id)
	}
	ep := &Endpoint{id: id, net: n, inbox: transport.NewDatagramInbox(8192)}
	n.eps[id] = ep
	return ep, nil
}

// SetLinkProfile overrides the profile for the directed link from→to.
func (n *Network) SetLinkProfile(from, to ident.ID, p Profile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from, to}] = p
}

// Partition blocks both directions between a and b (failure injection).
func (n *Network) Partition(a, b ident.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[linkKey{a, b}] = true
	n.blocked[linkKey{b, a}] = true
}

// Heal removes a partition between a and b.
func (n *Network) Heal(a, b ident.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, linkKey{a, b})
	delete(n.blocked, linkKey{b, a})
}

// Isolate cuts an endpoint off entirely — the simulated equivalent of a
// device walking out of radio range (§II-B transient disconnection).
func (n *Network) Isolate(id ident.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.isolated[id] = true
}

// Restore reconnects an isolated endpoint.
func (n *Network) Restore(id ident.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.isolated, id)
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close shuts down the network and all endpoints, waiting for in-flight
// deliveries to finish.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.eps = make(map[ident.ID]*Endpoint)
	schedOn, wake, done := n.schedOn, n.schedWake, n.schedDone
	n.mu.Unlock()
	for _, ep := range eps {
		ep.inbox.Close()
	}
	if schedOn {
		select {
		case wake <- struct{}{}:
		default:
		}
		<-done
	}
	return nil
}

// send routes one datagram, applying the link profile.
func (n *Network) send(from, dst ident.ID, data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return transport.ErrClosed
	}
	n.stats.Sent++
	n.stats.BytesSent += uint64(len(data))
	if dst.IsBroadcast() {
		for id := range n.eps {
			if id == from {
				continue
			}
			n.sendOneLocked(from, id, data)
		}
		return nil
	}
	if _, ok := n.eps[dst]; !ok {
		// Unknown destination on a datagram network: silently lost,
		// like UDP to a dead host. Reliability lives above.
		n.stats.Dropped++
		return nil
	}
	n.sendOneLocked(from, dst, data)
	return nil
}

// sendOneLocked applies profile effects and schedules delivery.
// Caller holds n.mu.
func (n *Network) sendOneLocked(from, to ident.ID, data []byte) {
	key := linkKey{from, to}
	if n.blocked[key] || n.isolated[from] || n.isolated[to] {
		return
	}
	p, ok := n.links[key]
	if !ok {
		p = n.def
	}
	if len(data) > p.effectiveMTU() {
		n.stats.Dropped++
		return
	}
	if p.Loss > 0 && n.rng.Float64() < p.Loss {
		n.stats.Dropped++
		return
	}
	delay := n.linkDelayLocked(key, p, len(data))
	if p.Reorder > 0 && n.rng.Float64() < p.Reorder {
		n.stats.Reordered++
		delay += p.reorderBy()
	}
	n.scheduleLocked(from, to, data, delay)
	if p.Duplicate > 0 && n.rng.Float64() < p.Duplicate {
		n.stats.Duplicated++
		n.scheduleLocked(from, to, data, delay+p.Latency/2+time.Millisecond)
	}
}

// linkDelayLocked computes propagation + transmission delay, serialising
// transmissions so that sustained throughput respects the bandwidth.
func (n *Network) linkDelayLocked(key linkKey, p Profile, size int) time.Duration {
	prop := p.Latency
	if p.Jitter > 0 {
		prop += time.Duration(n.rng.Int63n(int64(2*p.Jitter))) - p.Jitter
		if prop < 0 {
			prop = 0
		}
	}
	var tx time.Duration
	if p.bandwidth > 0 {
		tx = time.Duration(float64(size) / float64(p.bandwidth) * float64(time.Second))
	}
	now := time.Now()
	start := now
	if busyUntil, ok := n.nextFree[key]; ok && busyUntil.After(now) {
		start = busyUntil
	}
	finish := start.Add(tx)
	n.nextFree[key] = finish
	return finish.Sub(now) + prop
}

// scheduleLocked arranges delivery after delay. Caller holds n.mu.
// Zero-delay deliveries happen inline so that a perfect link preserves
// send order, as a real point-to-point link does.
func (n *Network) scheduleLocked(from, to ident.ID, data []byte, delay time.Duration) {
	dg := transport.NewPooledDatagram(data)
	if delay <= 0 {
		ep, ok := n.eps[to]
		if ok {
			ep.inbox.Put(dg)
		} else {
			dg.Recycle()
		}
		return
	}
	d := n.getDelLocked()
	d.at = time.Now().Add(delay)
	d.seq = n.delSeq
	n.delSeq++
	d.to = to
	d.dg = dg
	n.pending.push(d)
	if !n.schedOn {
		n.schedOn = true
		n.schedWake = make(chan struct{}, 1)
		n.schedDone = make(chan struct{})
		go n.schedLoop()
		return
	}
	select {
	case n.schedWake <- struct{}{}:
	default:
	}
}

// schedLoop drains the delivery heap: it sleeps until the earliest
// deadline, delivers everything due, and exits once the network closes
// (recycling whatever is still pending — every endpoint is closed by
// then, so those datagrams could only have been dropped anyway).
func (n *Network) schedLoop() {
	defer close(n.schedDone)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		n.mu.Lock()
		if n.closed {
			for len(n.pending) > 0 {
				d := n.pending.pop()
				d.dg.Recycle()
				n.putDelLocked(d)
			}
			n.mu.Unlock()
			return
		}
		now := time.Now()
		for len(n.pending) > 0 && !n.pending[0].at.After(now) {
			d := n.pending.pop()
			dg, to := d.dg, d.to
			n.putDelLocked(d)
			if ep, ok := n.eps[to]; ok {
				ep.inbox.Put(dg) // non-blocking: drops on overflow
			} else {
				dg.Recycle()
			}
		}
		wait := time.Hour
		if len(n.pending) > 0 {
			if wait = time.Until(n.pending[0].at); wait < 0 {
				wait = 0
			}
		}
		n.mu.Unlock()

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-n.schedWake:
		case <-timer.C:
		}
	}
}

// detach removes an endpoint; a successor attached under the same ID
// since is left alone.
func (n *Network) detach(ep *Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.eps[ep.id] == ep {
		delete(n.eps, ep.id)
	}
}

// Endpoint is one attachment point on the simulated network.
type Endpoint struct {
	id    ident.ID
	net   *Network
	inbox *transport.Inbox[transport.Datagram]
}

var _ transport.Transport = (*Endpoint)(nil)

// LocalID implements transport.Transport.
func (e *Endpoint) LocalID() ident.ID { return e.id }

// Send implements transport.Transport.
func (e *Endpoint) Send(dst ident.ID, data []byte) error {
	if e.inbox.Closed() {
		return transport.ErrClosed
	}
	return e.net.send(e.id, dst, data)
}

// Recv implements transport.Transport.
func (e *Endpoint) Recv() (transport.Datagram, error) { return e.inbox.Get() }

// RecvTimeout implements transport.Transport.
func (e *Endpoint) RecvTimeout(d time.Duration) (transport.Datagram, error) {
	return e.inbox.GetTimeout(d)
}

// Dropped implements transport.Transport.
func (e *Endpoint) Dropped() uint64 { return e.inbox.Dropped() }

// Close implements transport.Transport.
func (e *Endpoint) Close() error {
	e.net.detach(e)
	e.inbox.Close()
	return nil
}
