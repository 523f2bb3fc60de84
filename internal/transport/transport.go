// Package transport defines the generic transport layer of §III-D: an
// abstraction presenting send() and recv() of raw byte arrays so that
// higher layers are decoupled from the actual network beneath
// (UDP in the prototype; Bluetooth/ZigBee later; an in-process
// simulated network for experiments).
package transport

import (
	"errors"
	"time"

	"github.com/amuse/smc/internal/ident"
)

// Datagram is one received byte array; its sender is named inside it
// (wire.Packet.Sender). The receiver owns Data; if the transport drew
// it from the shared buffer pool, the owner may hand it back with
// Recycle once done.
type Datagram struct {
	Data []byte

	// bufp is the pool handle when Data is a pooled buffer (see
	// bufpool.go); nil otherwise.
	bufp *[]byte
}

// Transport carries byte arrays between services. Implementations must
// be safe for concurrent use. Delivery is unordered and unreliable —
// exactly the datagram semantics the prototype's UDP transport gives
// (§IV) — reliability is layered above (package reliable).
type Transport interface {
	// LocalID returns the 48-bit service ID this endpoint answers to.
	LocalID() ident.ID
	// Send transmits data to the service identified by dst. The
	// broadcast ID reaches every attached endpoint. Send does not
	// block on the receiver; data is copied before Send returns.
	Send(dst ident.ID, data []byte) error
	// Recv blocks until a datagram arrives or the transport closes.
	Recv() (Datagram, error)
	// RecvTimeout is Recv with a deadline; it returns ErrTimeout when
	// the deadline passes with nothing received.
	RecvTimeout(d time.Duration) (Datagram, error)
	// Dropped counts datagrams that reached the endpoint and were shed
	// because its receive queue was full or closed (DESIGN.md, row 1).
	Dropped() uint64
	// Close shuts the endpoint down; pending and future Recv calls
	// return ErrClosed.
	Close() error
}

// DeliveryHook lets tests intercept unicast datagrams on hook-capable
// transports (Switch, UDPTransport): returning drop suppresses the
// datagram, a positive delay defers it — enough to script loss and
// reorder scenarios on otherwise well-behaved links without standing
// up a full netsim.Network. The hook must not retain data.
type DeliveryHook func(from, to ident.ID, data []byte) (drop bool, delay time.Duration)

var (
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrTimeout reports an expired RecvTimeout deadline.
	ErrTimeout = errors.New("transport: receive timeout")
	// ErrUnknownDest reports a send to an ID with no endpoint. Lossy
	// networks may drop silently instead; callers must not rely on
	// this error for liveness.
	ErrUnknownDest = errors.New("transport: unknown destination")
	// ErrTooLarge reports a datagram above the transport MTU.
	ErrTooLarge = errors.New("transport: datagram exceeds MTU")
)
