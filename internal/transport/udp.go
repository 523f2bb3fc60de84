package transport

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"github.com/amuse/smc/internal/ident"
)

// UDPTransport is the prototype transport of §IV: datagram sockets,
// with the service ID derived from the unicast socket's address and
// port. The OS chooses the port (the prototype "is not hardwired to use
// a specific port for unicast traffic"). A send to the broadcast ID
// reaches no one: over UDP a device joins by the discovery service's
// ID, not by hearing its beacon.
type UDPTransport struct {
	id   ident.ID
	conn *net.UDPConn

	mu     sync.RWMutex
	hook   DeliveryHook
	closed bool

	inbox *Inbox[Datagram]
	wg    sync.WaitGroup
}

var _ Transport = (*UDPTransport)(nil)

// MaxUDPDatagram is the largest datagram the transport will send.
const MaxUDPDatagram = 60 * 1024

// UDPOption configures a UDPTransport.
type UDPOption func(*udpConfig)

type udpConfig struct {
	listenIP net.IP
	port     int
}

// WithAddr binds the transport to a "host:port" string, the shape the
// daemons take on their -addr flags. Port 0 lets the OS choose; the
// bound address is then available from LocalAddr. An empty host keeps
// the loopback default.
func WithAddr(addr string) (UDPOption, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("bad listen address %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 || port > 65535 {
		return nil, fmt.Errorf("bad listen port %q", portStr)
	}
	ip := net.IPv4(127, 0, 0, 1)
	if host != "" {
		if ip = net.ParseIP(host); ip == nil {
			return nil, fmt.Errorf("bad listen host %q", host)
		}
	}
	return func(c *udpConfig) { c.listenIP = ip; c.port = port }, nil
}

// NewUDPTransport opens a datagram socket and derives the service ID
// from its bound address and port.
func NewUDPTransport(opts ...UDPOption) (*UDPTransport, error) {
	cfg := udpConfig{listenIP: net.IPv4(127, 0, 0, 1)}
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: cfg.listenIP, Port: cfg.port})
	if err != nil {
		return nil, fmt.Errorf("udp listen: %w", err)
	}
	addr, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		conn.Close()
		return nil, errors.New("udp transport: unexpected local address type")
	}
	id, err := ident.FromUDPAddr(addr)
	if err != nil {
		conn.Close()
		return nil, err
	}
	t := &UDPTransport{id: id, conn: conn, inbox: NewDatagramInbox(defaultQueueDepth)}
	t.wg.Add(1)
	go t.readLoop()
	return t, nil
}

// SetSendHook installs (or, with nil, removes) a test hook applied to
// every unicast Send before it reaches the socket: loss and reorder
// injection on the real-socket path, mirroring Switch.SetDeliveryHook.
func (t *UDPTransport) SetSendHook(h DeliveryHook) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hook = h
}

// LocalAddr exposes the bound UDP address.
func (t *UDPTransport) LocalAddr() *net.UDPAddr {
	addr, _ := t.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

func (t *UDPTransport) readLoop() {
	defer t.wg.Done()
	buf := make([]byte, MaxUDPDatagram+1)
	for {
		n, from, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			// Shutdown, or a socket error outside it: stop receiving;
			// Recv callers see closure when Close runs.
			return
		}
		if _, err := ident.FromUDPAddr(from); err != nil {
			continue
		}
		// Receive overflow drops, as real UDP does; after Close the
		// next read fails and ends the loop.
		t.inbox.Put(pooledDatagram(buf[:n]))
	}
}

// LocalID implements Transport.
func (t *UDPTransport) LocalID() ident.ID { return t.id }

// Send implements Transport. Unicast destinations are addressed by
// decoding the 48-bit ID back to IP:port — the inverse of the ID
// derivation, exactly how the prototype routes packets.
func (t *UDPTransport) Send(dst ident.ID, data []byte) error {
	if len(data) > MaxUDPDatagram {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(data), MaxUDPDatagram)
	}
	t.mu.RLock()
	closed := t.closed
	hook := t.hook
	t.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if dst.IsBroadcast() {
		return nil
	}
	if hook != nil {
		drop, delay := hook(t.id, dst, data)
		if drop {
			return nil
		}
		if delay > 0 {
			cp := make([]byte, len(data))
			copy(cp, data)
			ip, port := dst.Addr()
			time.AfterFunc(delay, func() {
				// Best effort: a closed socket just drops the
				// datagram, as a real network would.
				_, _ = t.conn.WriteToUDP(cp, &net.UDPAddr{IP: ip, Port: port})
			})
			return nil
		}
	}
	ip, port := dst.Addr()
	_, err := t.conn.WriteToUDP(data, &net.UDPAddr{IP: ip, Port: port})
	if err != nil {
		return fmt.Errorf("udp send to %s: %w", dst, err)
	}
	return nil
}

// SendBatch transmits bufs to dst in order, one Send each, and stops
// at the first error.
func (t *UDPTransport) SendBatch(dst ident.ID, bufs [][]byte) error {
	for _, b := range bufs {
		if err := t.Send(dst, b); err != nil {
			return err
		}
	}
	return nil
}

// Recv implements Transport.
func (t *UDPTransport) Recv() (Datagram, error) { return t.inbox.Get() }

// RecvTimeout implements Transport.
func (t *UDPTransport) RecvTimeout(d time.Duration) (Datagram, error) { return t.inbox.GetTimeout(d) }

// Dropped implements Transport.
func (t *UDPTransport) Dropped() uint64 { return t.inbox.Dropped() }

// Close implements Transport.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.inbox.Close()
	err := t.conn.Close()
	t.wg.Wait()
	return err
}
