package wire

import (
	"fmt"

	"github.com/amuse/smc/internal/ident"
)

// Control payloads exchanged by the discovery protocol (§II-B). These
// are deliberately small, fixed structures: discovery runs over
// broadcast on constrained links.

// Beacon is broadcast by a discovery service so that nearby services
// can find the cell (§IV: "Broadcast traffic, generated by the
// discovery service, is delivered on an arbitrarily chosen port number
// known by services").
type Beacon struct {
	// Cell is the human-readable cell name ("ward-3-patient-7").
	Cell string
	// Epoch is a field of the seed's beacon format. No cell sets it,
	// so it is always zero, and no member reads it; a restarted cell
	// is not told apart from a live one by its beacons.
	Epoch uint32
}

// AppendBeacon encodes the beacon payload.
func AppendBeacon(dst []byte, b Beacon) []byte {
	dst = appendString(dst, b.Cell)
	dst = appendUvarint(dst, uint64(b.Epoch))
	return dst
}

// DecodeBeacon decodes a beacon payload.
func DecodeBeacon(buf []byte) (Beacon, error) {
	r := &reader{buf: buf}
	cell, err := r.string()
	if err != nil {
		return Beacon{}, err
	}
	epoch, err := r.uvarint()
	if err != nil {
		return Beacon{}, err
	}
	if r.remaining() != 0 {
		return Beacon{}, fmt.Errorf("%w: beacon trailing bytes", errBadEncoding)
	}
	return Beacon{Cell: cell, Epoch: uint32(epoch)}, nil
}

// JoinRequest asks the discovery service for admission. Auth carries an
// application-specific credential (the prototype uses an HMAC over the
// requesting ID and cell name under a shared secret; §II-B notes
// authentication is application specific).
type JoinRequest struct {
	DeviceType string
	DeviceName string
	Auth       []byte
}

// AppendJoinRequest encodes the join request payload.
func AppendJoinRequest(dst []byte, jr JoinRequest) []byte {
	dst = appendString(dst, jr.DeviceType)
	dst = appendString(dst, jr.DeviceName)
	dst = appendBytes(dst, jr.Auth)
	return dst
}

// DecodeJoinRequest decodes a join request payload.
func DecodeJoinRequest(buf []byte) (JoinRequest, error) {
	r := &reader{buf: buf}
	dt, err := r.string()
	if err != nil {
		return JoinRequest{}, err
	}
	dn, err := r.string()
	if err != nil {
		return JoinRequest{}, err
	}
	auth, err := r.bytes()
	if err != nil {
		return JoinRequest{}, err
	}
	if r.remaining() != 0 {
		return JoinRequest{}, fmt.Errorf("%w: join-request trailing bytes", errBadEncoding)
	}
	cp := make([]byte, len(auth))
	copy(cp, auth)
	return JoinRequest{DeviceType: dt, DeviceName: dn, Auth: cp}, nil
}

// JoinAccept grants admission and communicates the lease the member
// must refresh via heartbeats.
type JoinAccept struct {
	// Cell echoes the cell name.
	Cell string
	// Bus is the event bus's service ID; the admitted device sends
	// publishes and subscriptions there.
	Bus ident.ID
	// LeaseMillis is how long the membership lasts without a
	// heartbeat before the grace period starts.
	LeaseMillis uint32
	// GraceMillis is the additional silence tolerated (masking
	// transient disconnections, §II-B) before a Purge Member event.
	GraceMillis uint32
}

// AppendJoinAccept encodes the join accept payload.
func AppendJoinAccept(dst []byte, ja JoinAccept) []byte {
	dst = appendString(dst, ja.Cell)
	dst = appendUvarint(dst, uint64(ja.Bus))
	dst = appendUvarint(dst, uint64(ja.LeaseMillis))
	dst = appendUvarint(dst, uint64(ja.GraceMillis))
	return dst
}

// DecodeJoinAccept decodes a join accept payload.
func DecodeJoinAccept(buf []byte) (JoinAccept, error) {
	r := &reader{buf: buf}
	cell, err := r.string()
	if err != nil {
		return JoinAccept{}, err
	}
	busID, err := r.uvarint()
	if err != nil {
		return JoinAccept{}, err
	}
	lease, err := r.uvarint()
	if err != nil {
		return JoinAccept{}, err
	}
	grace, err := r.uvarint()
	if err != nil {
		return JoinAccept{}, err
	}
	if r.remaining() != 0 {
		return JoinAccept{}, fmt.Errorf("%w: join-accept trailing bytes", errBadEncoding)
	}
	return JoinAccept{
		Cell:        cell,
		Bus:         ident.New(busID),
		LeaseMillis: uint32(lease),
		GraceMillis: uint32(grace),
	}, nil
}

// JoinReject refuses admission with a reason.
type JoinReject struct {
	Reason string
}

// AppendJoinReject encodes the join reject payload.
func AppendJoinReject(dst []byte, jr JoinReject) []byte {
	return appendString(dst, jr.Reason)
}

// DecodeJoinReject decodes a join reject payload.
func DecodeJoinReject(buf []byte) (JoinReject, error) {
	r := &reader{buf: buf}
	reason, err := r.string()
	if err != nil {
		return JoinReject{}, err
	}
	if r.remaining() != 0 {
		return JoinReject{}, fmt.Errorf("%w: join-reject trailing bytes", errBadEncoding)
	}
	return JoinReject{Reason: reason}, nil
}
