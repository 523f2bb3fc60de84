package wire

import (
	"sync"
	"sync/atomic"
)

// encBufPool recycles outbound event-encode buffers. The proxy's
// delivery loops and the client's publish path share it: the reliable
// channel copies the payload into its own marshal buffer before
// Send/SendAsync return, so an encode buffer is reusable the moment
// the send call comes back.
var encBufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 512)
	return &b
}}

// GetEncodeBuf returns an empty pooled buffer for AppendEvent-style
// encoding. Pair with PutEncodeBuf.
func GetEncodeBuf() *[]byte { return encBufPool.Get().(*[]byte) }

// PutEncodeBuf returns an encode buffer to the pool; the caller must
// not touch the slice afterwards.
func PutEncodeBuf(bp *[]byte) {
	if bp == nil {
		return
	}
	*bp = (*bp)[:0]
	encBufPool.Put(bp)
}

// PacketPool recycles inbound packets. The seed receive path paid an
// allocation pair for every packet — the Packet struct from unmarshal
// plus the payload clone detaching it from the transport buffer
// (ROADMAP names this the residual remote-path cost). A pooled decode
// copies the payload straight into a buffer the packet owns and keeps
// across recycles, so the steady-state cost of both is zero.
//
// Lifecycle: PacketPool.Unmarshal hands out a packet with one
// reference. A consumer that fans the packet out (the bus delivering
// one inbound event to several local subscribers, the reorder buffer
// parking it) takes additional references with Retain; every owner
// calls Release when done, and the last release recycles the packet.
// Releasing is always safe on non-pooled packets (no-op), so shared
// delivery code does not need to know where a packet came from.
//
// The acquired/recycled counters make missed releases observable: on
// a quiesced channel the two converge, and a growing gap is a leak
// (surfaced as reliable.Stats.PacketsAcquired/PacketsRecycled).
type PacketPool struct {
	pool     sync.Pool
	acquired atomic.Uint64
	recycled atomic.Uint64
}

// maxPooledPayload bounds the payload buffer a recycled packet keeps;
// larger one-off payloads are dropped on release so a single jumbo
// packet does not pin memory for the pool's lifetime.
const maxPooledPayload = 64 * 1024

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool {
	return &PacketPool{pool: sync.Pool{New: func() interface{} { return new(Packet) }}}
}

// get returns a zeroed packet owned by this pool with one reference.
func (pp *PacketPool) get() *Packet {
	p := pp.pool.Get().(*Packet)
	p.pool = pp
	atomic.StoreInt32(&p.refs, 1)
	pp.acquired.Add(1)
	return p
}

// Stats reports packets handed out and packets recycled since the pool
// was created. acquired-recycled is the number of packets currently
// live (or leaked, once the owning channel has quiesced).
func (pp *PacketPool) Stats() (acquired, recycled uint64) {
	return pp.acquired.Load(), pp.recycled.Load()
}

// Unmarshal decodes a packet from buf like the package-level unmarshal
// but into a pooled packet whose payload is copied into packet-owned
// reusable storage: the caller may recycle buf immediately, and must
// Release the packet when done with it.
func (pp *PacketPool) Unmarshal(buf []byte) (*Packet, error) {
	p := pp.get()
	if err := unmarshalInto(p, buf); err != nil {
		p.Release()
		return nil, err
	}
	p.buf = append(p.buf[:0], p.Payload...)
	p.Payload = p.buf
	return p, nil
}

// retain adds a reference to a pooled packet and returns it; it is a
// no-op for non-pooled packets.
func (p *Packet) retain() *Packet {
	if p != nil && p.pool != nil {
		atomic.AddInt32(&p.refs, 1)
	}
	return p
}

// Release drops one reference; the last release returns the packet to
// its pool. No-op for non-pooled packets. The payload must not be used
// after the owner's Release.
func (p *Packet) Release() {
	if p == nil || p.pool == nil {
		return
	}
	if atomic.AddInt32(&p.refs, -1) != 0 {
		return
	}
	pp := p.pool
	buf := p.buf
	if cap(buf) > maxPooledPayload {
		buf = nil
	}
	*p = Packet{buf: buf[:0]}
	pp.recycled.Add(1)
	pp.pool.Put(p)
}
