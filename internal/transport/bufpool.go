package transport

import "sync"

// Datagram buffer recycling. Every delivery used to allocate a fresh
// copy of the datagram (the transport contract: data is copied before
// Send returns, and the receiver owns what Recv hands it). Hook-capable
// transports now draw those copies from a shared pool, and the one
// place that knows when a datagram is finished — the reliable channel's
// receive loop, right after the pooled packet decode detaches from the
// buffer — recycles it. Consumers that read a Transport directly and
// never call Recycle simply let their buffers fall to the garbage
// collector, exactly the seed behaviour.

// maxPooledDatagram bounds recycled buffer capacity so a jumbo
// datagram cannot pin memory for the pool's lifetime.
const maxPooledDatagram = 64 * 1024

var dgBufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 2048)
	return &b
}}

// pooledCopy copies data into a pooled buffer and returns both the
// sized slice and its pool handle.
func pooledCopy(data []byte) ([]byte, *[]byte) {
	bp := dgBufPool.Get().(*[]byte)
	if cap(*bp) < len(data) {
		// Too small for this datagram but still clean: put it back for
		// smaller traffic rather than shedding it to the collector.
		dgBufPool.Put(bp)
		b := make([]byte, 0, len(data))
		bp = &b
	}
	buf := (*bp)[:len(data)]
	copy(buf, data)
	*bp = buf
	return buf, bp
}

// pooledDatagram builds a Datagram backed by a pooled copy of data.
func pooledDatagram(data []byte) Datagram {
	buf, bp := pooledCopy(data)
	return Datagram{Data: buf, bufp: bp}
}

// NewPooledDatagram builds a Datagram backed by a pooled copy of data.
// Transport implementations outside this package (netsim) use it so
// their deliveries join the same recycling cycle.
func NewPooledDatagram(data []byte) Datagram {
	return pooledDatagram(data)
}

// Recycle returns the datagram's buffer to the transport pool. Only
// the datagram's owner may call it, after which Data must not be
// touched. It is a no-op for datagrams whose buffer did not come from
// the pool.
func (d *Datagram) Recycle() {
	if d.bufp == nil {
		return
	}
	if cap(*d.bufp) <= maxPooledDatagram {
		dgBufPool.Put(d.bufp)
	}
	d.bufp = nil
	d.Data = nil
}
