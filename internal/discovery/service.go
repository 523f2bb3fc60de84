package discovery

import (
	"errors"
	"sync"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/wire"
)

// Members is the cell's membership, which discovery drives: the bus
// satisfies it, and announces New Member and Purge Member itself.
type Members interface {
	// AddMember admits a device; an error rejects its join.
	AddMember(id ident.ID, deviceType, name string) error
	// RemoveMember purges a member, with reason as the purge's cause.
	RemoveMember(id ident.ID, reason string)
	// RenewMember starts a new session for a member that joined again.
	RenewMember(id ident.ID)
}

// MemberState describes a member's liveness.
type MemberState int

// Member liveness states. A member whose lease lapsed enters Grace —
// still a member, its silence masked (§II-B: "a nurse leaves the room
// for a short period of time before returning") — and is purged only
// when the grace period also lapses.
const (
	stateActive MemberState = iota + 1
	stateGrace
)

// String names the state.
func (s MemberState) String() string {
	switch s {
	case stateActive:
		return "active"
	case stateGrace:
		return "grace"
	default:
		return "unknown"
	}
}

// MemberInfo is a snapshot of one member's record.
type MemberInfo struct {
	State    MemberState
	lastSeen time.Time
}

// ServiceConfig configures a discovery service.
type ServiceConfig struct {
	// Cell is the cell's name, echoed in beacons and join accepts.
	Cell string
	// Secret is the shared admission secret.
	Secret []byte
	// BusID is the event bus's service ID, handed to admitted devices.
	BusID ident.ID
	// BeaconInterval is the broadcast period (default 500 ms).
	BeaconInterval time.Duration
	// Lease is the heartbeat lease (default 2 s).
	Lease time.Duration
	// Grace is the additional tolerated silence (default 3 s).
	Grace time.Duration
	// StatsProvider, when set, enables the management plane: a
	// PktStatsRequest from any endpoint (admission not required — the
	// observation plane must work exactly when the data plane is in
	// trouble) is answered with the encoded snapshot it returns.
	StatsProvider func() wire.CellStats
}

func (c *ServiceConfig) fillDefaults() {
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = 500 * time.Millisecond
	}
	if c.Lease <= 0 {
		c.Lease = 2 * time.Second
	}
	if c.Grace <= 0 {
		c.Grace = 3 * time.Second
	}
}

// Stats counts discovery activity.
type Stats struct {
	Beacons      uint64
	JoinRequests uint64
	Admitted     uint64
	Rejected     uint64
	Heartbeats   uint64
	GraceEntries uint64
	GraceReturns uint64
	Purged       uint64
	Leaves       uint64
	// Members is the current membership count.
	Members uint64
}

// Service is the cell-side discovery service.
type Service struct {
	ch   *reliable.Channel
	cell Members
	cfg  ServiceConfig

	// lifeMu runs joins and purges one at a time, across their calls
	// into the cell; mu guards the table and counters, never held
	// across those calls.
	lifeMu  sync.Mutex
	mu      sync.Mutex
	members map[ident.ID]*MemberInfo
	stats   Stats
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewService builds a discovery service over its own reliable channel
// (the discovery protocol does not share the bus's endpoint); it adds
// the devices it admits to members and removes them when they go. Call
// Start to begin beaconing and admission.
func NewService(ch *reliable.Channel, members Members, cfg ServiceConfig) (*Service, error) {
	if members == nil {
		return nil, errors.New("discovery: nil members")
	}
	if cfg.Cell == "" {
		return nil, errors.New("discovery: empty cell name")
	}
	if cfg.BusID.IsNil() {
		return nil, errors.New("discovery: missing bus ID")
	}
	cfg.fillDefaults()
	return &Service{
		ch:      ch,
		cell:    members,
		cfg:     cfg,
		members: make(map[ident.ID]*MemberInfo),
		done:    make(chan struct{}),
	}, nil
}

// ID returns the discovery service's network ID.
func (s *Service) ID() ident.ID { return s.ch.LocalID() }

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Members = uint64(len(s.members))
	return st
}

// Members snapshots the member IDs; Stats().Members counts them.
func (s *Service) Members() []ident.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ident.ID, 0, len(s.members))
	for id := range s.members {
		out = append(out, id)
	}
	return out
}

// Member returns one member's record.
func (s *Service) Member(id ident.ID) (MemberInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.members[id]; ok {
		return *m, true
	}
	return MemberInfo{}, false
}

// Start launches the beacon, receive and expiry loops.
func (s *Service) Start() {
	s.wg.Add(3)
	go s.beaconLoop()
	go s.recvLoop()
	go s.expiryLoop()
}

// Close stops the service and its channel.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	err := s.ch.Close()
	s.wg.Wait()
	return err
}

func (s *Service) beaconLoop() {
	defer s.wg.Done()
	payload := wire.AppendBeacon(nil, wire.Beacon{Cell: s.cfg.Cell})
	ticker := time.NewTicker(s.cfg.BeaconInterval)
	defer ticker.Stop()
	// Send one beacon immediately so joins don't wait a full period.
	s.sendBeacon(payload)
	for {
		select {
		case <-ticker.C:
			s.sendBeacon(payload)
		case <-s.done:
			return
		}
	}
}

func (s *Service) sendBeacon(payload []byte) {
	if err := s.ch.SendUnreliable(ident.Broadcast, wire.PktBeacon, payload); err != nil {
		return
	}
	s.mu.Lock()
	s.stats.Beacons++
	s.mu.Unlock()
}

func (s *Service) recvLoop() {
	defer s.wg.Done()
	for {
		pkt, err := s.ch.Recv()
		if err != nil {
			return
		}
		switch pkt.Type {
		case wire.PktJoinRequest:
			s.handleJoin(pkt)
		case wire.PktHeartbeat:
			s.handleHeartbeat(pkt.Sender)
		case wire.PktLeave:
			s.handleLeave(pkt.Sender)
		case wire.PktStatsRequest:
			s.handleStatsRequest(pkt.Sender)
		default:
			// Bus traffic does not belong here; ignore.
		}
		// Handlers decode what they keep; recycle the pooled packet.
		pkt.Release()
	}
}

func (s *Service) handleJoin(pkt *wire.Packet) {
	s.mu.Lock()
	s.stats.JoinRequests++
	s.mu.Unlock()

	req, err := wire.DecodeJoinRequest(pkt.Payload)
	if err != nil {
		s.reject(pkt.Sender, "malformed join request")
		return
	}
	if !verifyAuth(s.cfg.Secret, pkt.Sender, s.cfg.Cell, req.Auth) {
		s.reject(pkt.Sender, "authentication failed")
		return
	}

	now := time.Now()
	s.lifeMu.Lock()
	s.mu.Lock()
	rec, rejoin := s.members[pkt.Sender]
	s.mu.Unlock()
	// A new member exists, its New Member queued ahead of anything it
	// can publish, before the device learns it was admitted. A rejoin
	// (a restart, or a missed JoinAccept) forgets the old session's
	// streams, or they would take the new one's packets for duplicates.
	if rejoin {
		s.ch.Forget(pkt.Sender)
		s.cell.RenewMember(pkt.Sender)
	} else if err := s.cell.AddMember(pkt.Sender, req.DeviceType, req.DeviceName); err != nil {
		s.lifeMu.Unlock()
		s.reject(pkt.Sender, err.Error())
		return
	}
	s.mu.Lock()
	if rejoin {
		// Refresh the record; do not duplicate the New Member event.
		rec.lastSeen = now
		rec.State = stateActive
	} else {
		rec = &MemberInfo{State: stateActive, lastSeen: now}
		s.members[pkt.Sender] = rec
		s.stats.Admitted++
	}
	s.mu.Unlock()
	s.lifeMu.Unlock()

	accept := wire.AppendJoinAccept(nil, wire.JoinAccept{
		Cell:        s.cfg.Cell,
		Bus:         s.cfg.BusID,
		LeaseMillis: uint32(s.cfg.Lease / time.Millisecond),
		GraceMillis: uint32(s.cfg.Grace / time.Millisecond),
	})
	if err := s.ch.Send(pkt.Sender, wire.PktJoinAccept, accept); err != nil && !rejoin {
		// Could not confirm admission: roll back so the device can
		// retry cleanly.
		s.purge(pkt.Sender, rec, "join-unconfirmed")
	}
}

func (s *Service) reject(to ident.ID, reason string) {
	s.mu.Lock()
	s.stats.Rejected++
	s.mu.Unlock()
	payload := wire.AppendJoinReject(nil, wire.JoinReject{Reason: reason})
	_ = s.ch.SendUnreliable(to, wire.PktJoinReject, payload)
}

// handleStatsRequest answers a management-plane snapshot query. The
// reply is a reliable send whose completion is dropped: it must not
// block the receive loop, and a lost response is recovered by the
// requester retrying the query.
func (s *Service) handleStatsRequest(to ident.ID) {
	if s.cfg.StatsProvider == nil {
		return
	}
	payload := wire.AppendCellStats(nil, s.cfg.StatsProvider())
	s.ch.SendAsync(to, wire.PktStatsSnapshot, payload)
}

func (s *Service) handleHeartbeat(id ident.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.members[id]
	if !ok {
		return // not a member; heartbeats don't admit
	}
	s.stats.Heartbeats++
	rec.lastSeen = time.Now()
	if rec.State == stateGrace {
		rec.State = stateActive
		s.stats.GraceReturns++
	}
}

func (s *Service) handleLeave(id ident.ID) {
	s.mu.Lock()
	_, ok := s.members[id]
	if ok {
		s.stats.Leaves++
	}
	s.mu.Unlock()
	if ok {
		s.purge(id, nil, "leave")
	}
}

func (s *Service) expiryLoop() {
	defer s.wg.Done()
	period := s.cfg.Lease / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.checkExpiry()
		case <-s.done:
			return
		}
	}
}

func (s *Service) checkExpiry() {
	now := time.Now()
	var toPurge []ident.ID
	s.mu.Lock()
	for id, rec := range s.members {
		silence := now.Sub(rec.lastSeen)
		switch rec.State {
		case stateActive:
			if silence > s.cfg.Lease {
				rec.State = stateGrace
				s.stats.GraceEntries++
			}
		case stateGrace:
			if silence > s.cfg.Lease+s.cfg.Grace {
				toPurge = append(toPurge, id)
			}
		}
	}
	s.mu.Unlock()
	for _, id := range toPurge {
		s.purge(id, nil, "lease-expired")
	}
}

// purge takes a member out of the cell, then out of the table, so the
// table never lacks a member the bus still has. A non-nil want purges
// only that record, not one a later join put in its place.
func (s *Service) purge(id ident.ID, want *MemberInfo, reason string) {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.mu.Lock()
	rec, ok := s.members[id]
	s.mu.Unlock()
	if !ok || (want != nil && rec != want) {
		return
	}
	s.ch.Forget(id)
	s.cell.RemoveMember(id, reason)
	s.mu.Lock()
	delete(s.members, id)
	s.stats.Purged++
	s.mu.Unlock()
}
