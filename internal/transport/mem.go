package transport

import (
	"fmt"
	"sync"
	"time"

	"github.com/amuse/smc/internal/ident"
)

// Switch is an in-memory hub connecting MemTransport endpoints with
// instant, loss-free delivery. It gives unit tests the cleanest
// possible network; the netsim package provides the degraded ones.
type Switch struct {
	mu        sync.RWMutex
	endpoints map[ident.ID]*MemTransport
	hook      DeliveryHook
	closed    bool
	timers    sync.WaitGroup
}

// SetDeliveryHook installs (or, with nil, removes) a test hook applied
// to every unicast datagram crossing the switch.
func (s *Switch) SetDeliveryHook(h DeliveryHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// NewSwitch returns an empty hub.
func NewSwitch() *Switch {
	return &Switch{endpoints: make(map[ident.ID]*MemTransport)}
}

// Attach creates an endpoint with the given ID. Attaching a duplicate
// ID fails.
func (s *Switch) Attach(id ident.ID) (*MemTransport, error) {
	if id.IsNil() || id.IsBroadcast() {
		return nil, fmt.Errorf("transport: cannot attach reserved ID %s", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, dup := s.endpoints[id]; dup {
		return nil, fmt.Errorf("transport: duplicate endpoint ID %s", id)
	}
	ep := &MemTransport{id: id, sw: s, inbox: NewDatagramInbox(defaultQueueDepth)}
	s.endpoints[id] = ep
	return ep, nil
}

// detach removes an endpoint without closing it. A successor attached
// under the same ID since is left alone.
func (s *Switch) detach(ep *MemTransport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.endpoints[ep.id] == ep {
		delete(s.endpoints, ep.id)
	}
}

// Close closes the hub and every attached endpoint.
func (s *Switch) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	eps := make([]*MemTransport, 0, len(s.endpoints))
	for _, ep := range s.endpoints {
		eps = append(eps, ep)
	}
	s.endpoints = make(map[ident.ID]*MemTransport)
	s.mu.Unlock()
	for _, ep := range eps {
		ep.inbox.Close()
	}
	s.timers.Wait()
	return nil
}

// deliver routes a datagram to dst (or everyone but the sender for the
// broadcast ID).
func (s *Switch) deliver(from, dst ident.ID, data []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if dst.IsBroadcast() {
		for id, ep := range s.endpoints {
			if id == from {
				continue
			}
			ep.inbox.Put(pooledDatagram(from, data))
		}
		return nil
	}
	ep, ok := s.endpoints[dst]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDest, dst)
	}
	if s.hook != nil {
		drop, delay := s.hook(from, dst, data)
		if drop {
			return nil
		}
		if delay > 0 {
			dg := pooledDatagram(from, data)
			s.timers.Add(1)
			time.AfterFunc(delay, func() {
				defer s.timers.Done()
				s.mu.RLock()
				late, ok := s.endpoints[dst]
				s.mu.RUnlock()
				if ok {
					late.inbox.Put(dg)
				} else {
					dg.Recycle()
				}
			})
			return nil
		}
	}
	ep.inbox.Put(pooledDatagram(from, data))
	return nil
}

const defaultQueueDepth = 4096

// MemTransport is one endpoint on a Switch. A full inbox models
// receive-buffer drops: datagram transports are allowed to lose packets
// under load.
type MemTransport struct {
	id    ident.ID
	sw    *Switch
	inbox *Inbox[Datagram]
}

var _ Transport = (*MemTransport)(nil)

// LocalID implements Transport.
func (t *MemTransport) LocalID() ident.ID { return t.id }

// Send implements Transport.
func (t *MemTransport) Send(dst ident.ID, data []byte) error {
	if t.inbox.Closed() {
		return ErrClosed
	}
	return t.sw.deliver(t.id, dst, data)
}

// Recv implements Transport.
func (t *MemTransport) Recv() (Datagram, error) { return t.inbox.Get() }

// RecvTimeout implements Transport.
func (t *MemTransport) RecvTimeout(d time.Duration) (Datagram, error) { return t.inbox.GetTimeout(d) }

// Dropped implements Transport.
func (t *MemTransport) Dropped() uint64 { return t.inbox.Dropped() }

// Close implements Transport.
func (t *MemTransport) Close() error {
	t.sw.detach(t)
	t.inbox.Close()
	return nil
}
