package discovery

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

// Device-side admission: listen for a cell's beacons, request
// membership, then keep the lease alive with heartbeats.

var (
	// ErrNoCell reports that no beacon was heard within the timeout.
	ErrNoCell = errors.New("discovery: no cell found")
	// ErrRejected reports admission refusal; the reason is appended.
	ErrRejected = errors.New("discovery: join rejected")
)

// JoinResult describes a successful admission.
type JoinResult struct {
	Cell      string
	Discovery ident.ID
	Bus       ident.ID
	Lease     time.Duration
}

// JoinConfig parameterises a join attempt.
type JoinConfig struct {
	DeviceType string
	DeviceName string
	Secret     []byte
	// Cell optionally pins the cell to join; empty joins the first
	// cell heard.
	Cell string
	// Discovery, when non-nil together with Cell, skips the beacon
	// phase and contacts the named discovery service directly. Used
	// on transports without broadcast reach (e.g. unicast-only UDP
	// deployments where the operator knows the cell's address).
	Discovery ident.ID
	// Timeout bounds the whole attempt (default 5 s).
	Timeout time.Duration
}

// Join performs device-side admission on the channel: wait for a
// beacon, send an authenticated join request, await the verdict. The
// caller must not be consuming ch.Recv concurrently; after Join
// returns the channel is free (hand it to the client library).
func Join(ch *reliable.Channel, cfg JoinConfig) (*JoinResult, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	deadline := time.Now().Add(cfg.Timeout)

	// Phase 1: hear a beacon (skipped when the discovery service is
	// already known).
	var (
		beacon  wire.Beacon
		discSvc ident.ID
	)
	if !cfg.Discovery.IsNil() {
		if cfg.Cell == "" {
			return nil, errors.New("discovery: direct join needs the cell name")
		}
		beacon = wire.Beacon{Cell: cfg.Cell}
		discSvc = cfg.Discovery
	}
	for discSvc.IsNil() {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, ErrNoCell
		}
		pkt, err := ch.RecvTimeout(remain)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				return nil, ErrNoCell
			}
			return nil, err
		}
		if pkt.Type != wire.PktBeacon {
			pkt.Release()
			continue
		}
		b, err := wire.DecodeBeacon(pkt.Payload)
		sender := pkt.Sender
		pkt.Release()
		if err != nil {
			continue
		}
		if cfg.Cell != "" && b.Cell != cfg.Cell {
			continue
		}
		beacon, discSvc = b, sender
		break
	}

	// Phase 2: authenticated join request (reliable, acked).
	req := wire.AppendJoinRequest(nil, wire.JoinRequest{
		DeviceType: cfg.DeviceType,
		DeviceName: cfg.DeviceName,
		Auth:       AuthDigest(cfg.Secret, ch.LocalID(), beacon.Cell),
	})
	if err := ch.Send(discSvc, wire.PktJoinRequest, req); err != nil {
		return nil, fmt.Errorf("discovery: join request: %w", err)
	}

	// Phase 3: await the verdict, skipping unrelated traffic.
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("discovery: no verdict from %s", discSvc)
		}
		pkt, err := ch.RecvTimeout(remain)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				return nil, fmt.Errorf("discovery: no verdict from %s", discSvc)
			}
			return nil, err
		}
		switch pkt.Type {
		case wire.PktJoinAccept:
			ja, err := wire.DecodeJoinAccept(pkt.Payload)
			pkt.Release()
			if err != nil {
				return nil, fmt.Errorf("discovery: bad accept: %w", err)
			}
			return &JoinResult{
				Cell:      ja.Cell,
				Discovery: discSvc,
				Bus:       ja.Bus,
				Lease:     time.Duration(ja.LeaseMillis) * time.Millisecond,
			}, nil
		case wire.PktJoinReject:
			jr, err := wire.DecodeJoinReject(pkt.Payload)
			pkt.Release()
			if err != nil {
				return nil, ErrRejected
			}
			return nil, fmt.Errorf("%w: %s", ErrRejected, jr.Reason)
		default:
			pkt.Release()
			continue
		}
	}
}

// Heartbeater keeps a member's lease alive.
type Heartbeater struct {
	ch       *reliable.Channel
	disc     ident.ID
	interval time.Duration

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartHeartbeats begins sending unreliable heartbeats to the discovery
// service every interval (a third of the lease is a sensible choice:
// two may be lost before the lease lapses).
func StartHeartbeats(ch *reliable.Channel, disc ident.ID, interval time.Duration) *Heartbeater {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	h := &Heartbeater{
		ch:       ch,
		disc:     disc,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go h.loop()
	return h
}

func (h *Heartbeater) loop() {
	defer close(h.done)
	ticker := time.NewTicker(h.interval)
	defer ticker.Stop()
	// Beat immediately: the join itself counted as contact, but an
	// early beat narrows the race with a short lease.
	_ = h.ch.SendUnreliable(h.disc, wire.PktHeartbeat, nil)
	for {
		select {
		case <-ticker.C:
			_ = h.ch.SendUnreliable(h.disc, wire.PktHeartbeat, nil)
		case <-h.stop:
			return
		}
	}
}

// Stop ends the heartbeats and waits for the loop to exit.
func (h *Heartbeater) Stop() {
	h.stopOnce.Do(func() {
		close(h.stop)
	})
	<-h.done
}

// Leave announces a voluntary departure (reliable) so the cell purges
// the member immediately instead of waiting out lease and grace.
func Leave(ch *reliable.Channel, disc ident.ID) error {
	return ch.Send(disc, wire.PktLeave, nil)
}
