// Package wire defines the binary packet format carried by the generic
// transport layer.
//
// The paper's transport layer (§III-D) deliberately exchanges raw byte
// arrays, avoiding Java serialisation so that devices written in other
// languages can participate. This package is the single place where SMC
// structures (events, filters, control messages) are converted to and
// from those byte arrays.
//
// Packet layout (big endian):
//
//	offset  size  field
//	0       2     magic "SM"
//	2       1     version (currently 1)
//	3       1     packet type
//	4       1     flags
//	5       1     stream epoch (0 before any outbound stream reset)
//	6       6     sender ID (48 bits)
//	12      8     sequence number
//	20      4     payload length
//	24      n     payload
//	24+n    4     CRC-32 (IEEE) over bytes [0, 24+n)
//
// A PktEvent or PktEventDurable packet whose FlagBatch flag bit is set
// carries, instead of one bare payload, the batch payload documented in
// batch.go: a 10-byte prologue (optional piggybacked cumulative ack)
// followed by length-prefixed frames, each frame byte-identical to the
// standalone payload of that delivery.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/amuse/smc/internal/ident"
)

// PacketType discriminates the payload carried by a packet.
type PacketType byte

// Packet types used by the SMC core.
const (
	_ PacketType = iota // 0 is no packet type
	// PktEvent carries one encoded event.
	PktEvent
	// PktAck acknowledges receipt of the packet with the echoed
	// sequence number from the echoed sender.
	PktAck
	// PktSubscribe carries an encoded filter to install.
	PktSubscribe
	// PktUnsubscribe carries an encoded filter to remove.
	PktUnsubscribe
	// PktBeacon is a discovery broadcast announcing a service.
	PktBeacon
	// PktJoinRequest asks for admission to the cell.
	PktJoinRequest
	// PktJoinAccept grants admission.
	PktJoinReject
	// PktJoinAccept grants admission.
	PktJoinAccept
	// PktLeave announces a voluntary departure.
	PktLeave
	// PktHeartbeat refreshes a membership lease.
	PktHeartbeat
	// PktQuench tells a publisher that no subscriber currently
	// matches (power saving, §VI).
	PktQuench
	// PktUnquench tells a publisher that matching subscribers exist
	// again.
	PktUnquench
	// PktData carries raw device bytes (sensor native encoding) for a
	// proxy to translate (§III-B).
	PktData
	// PktStatsRequest asks a discovery service for a cell health
	// snapshot (management/observation plane; no admission required).
	PktStatsRequest
	// pktStatsResponse is reserved: it carried the fixed-layout
	// snapshot PktStatsSnapshot replaced, and its number is not reused.
	pktStatsResponse
	// PktDurableResume binds the sending member to a named durable
	// consumer and asks the bus to replay the log from a position
	// (durable.go). Sent right after admission, before any subscribe.
	PktDurableResume
	// PktDurableAck answers a PktDurableResume with the log epoch and
	// the cursor replay starts after; it always precedes the first
	// durable delivery on the member's stream.
	PktDurableAck
	// PktEventDurable carries one durable delivery: an 8-byte log
	// cursor followed by the unchanged single-event encoding — the
	// same strict layering over the frozen format as FlagBatch. With
	// FlagBatch set it carries a run of them, one per batch frame.
	PktEventDurable
	// PktStatsSnapshot answers a PktStatsRequest with an encoded
	// CellStats payload (stats.go).
	PktStatsSnapshot
)

var packetTypeNames = [...]string{
	PktEvent: "event", PktAck: "ack", PktSubscribe: "subscribe",
	PktUnsubscribe: "unsubscribe", PktBeacon: "beacon",
	PktJoinRequest: "join-request", PktJoinReject: "join-reject",
	PktJoinAccept: "join-accept", PktLeave: "leave", PktHeartbeat: "heartbeat",
	PktQuench: "quench", PktUnquench: "unquench", PktData: "data",
	PktStatsRequest: "stats-request", pktStatsResponse: "stats-response",
	PktDurableResume: "durable-resume", PktDurableAck: "durable-ack",
	PktEventDurable: "event-durable", PktStatsSnapshot: "stats-snapshot",
}

// String names the packet type.
func (t PacketType) String() string {
	if int(t) < len(packetTypeNames) && packetTypeNames[t] != "" {
		return packetTypeNames[t]
	}
	return "invalid"
}

// Flag bits.
const (
	// FlagNoAck marks packets the receiver must not acknowledge
	// (e.g. periodic sensor data whose proxy absorbs acks, §III-B).
	FlagNoAck byte = 1 << iota
	// FlagRetransmit marks a retransmitted packet.
	FlagRetransmit
	// FlagCumAck marks a PktAck whose Seq is cumulative: it
	// acknowledges every packet of the echoed epoch up to and
	// including Seq, not just the one packet carrying that number.
	FlagCumAck

	// FlagBatch (1 << 3) marks a PktEvent or PktEventDurable carrying
	// a batch of frames; it is defined in batch.go next to the batch
	// framing layout it governs.
)

// FlagSack marks a PktAck that also carries a selective ack: an 8-byte
// big-endian bitmap payload whose bit i is set when the receiver holds
// sequence number Seq+2+i past the cumulative point (Seq+1 is the one
// it waits for). Like FlagBatch it layers over the frozen format: an
// ack without it is the plain FlagCumAck ack, with no payload.
const FlagSack byte = 1 << 4

// sackLen is the size of a FlagSack ack's payload.
const sackLen = 8

// AppendSack appends the payload of a FlagSack ack carrying bits.
func AppendSack(dst []byte, bits uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, bits)
}

// AckSack returns the selective-ack bitmap a PktAck carries; it is 0
// unless FlagSack is set and the payload is exactly 8 bytes.
func AckSack(p *Packet) uint64 {
	if p.Flags&FlagSack == 0 || len(p.Payload) != sackLen {
		return 0
	}
	return binary.BigEndian.Uint64(p.Payload)
}

// version is the current wire format version.
const version byte = 1

// HeaderLen is the fixed header size in bytes.
const HeaderLen = 24

// TrailerLen is the CRC trailer size in bytes.
const TrailerLen = 4

// maxPayload bounds a packet payload, keeping datagrams bounded for the
// constrained target platform.
const maxPayload = 256 * 1024

var (
	// errShortPacket reports a truncated packet.
	errShortPacket = errors.New("wire: short packet")
	// errBadMagic reports a packet without the SM magic.
	errBadMagic = errors.New("wire: bad magic")
	// errBadVersion reports an unsupported wire version.
	errBadVersion = errors.New("wire: unsupported version")
	// errBadChecksum reports a CRC mismatch (corrupted packet).
	errBadChecksum = errors.New("wire: checksum mismatch")
	// errPayloadTooLarge reports a payload above maxPayload.
	errPayloadTooLarge = errors.New("wire: payload too large")
)

var magic = [2]byte{'S', 'M'}

// Packet is a decoded transport packet.
type Packet struct {
	Type  PacketType
	Flags byte
	// Epoch numbers the sender's outbound reliable stream to this
	// destination. It starts at 0 and is bumped when the sender
	// abandons unacknowledged packets and restarts its sequence
	// numbers (see package reliable); a receiver seeing a newer epoch
	// resets its per-sender ordering state. Byte 5 of the header was
	// reserved-zero before this field existed, so epoch-0 packets are
	// byte-identical to the original format.
	Epoch   byte
	Sender  ident.ID
	Seq     uint64
	Payload []byte

	// Pooled lifecycle (see PacketPool). pool is nil for packets built
	// by hand, making Retain/Release no-ops
	// for them. buf is the packet-owned payload buffer a pooled decode
	// copies into; it survives recycling so steady-state receive pays
	// no per-packet allocation. refs is a plain int32 updated with
	// sync/atomic so Packet stays a plain-old-data struct.
	pool *PacketPool
	buf  []byte
	refs int32
}

// encodedLen reports the encoded size of the packet.
func (p *Packet) encodedLen() int {
	return HeaderLen + len(p.Payload) + TrailerLen
}

// Marshal encodes the packet, appending to dst (which may be nil) and
// returning the extended slice.
func (p *Packet) Marshal(dst []byte) ([]byte, error) {
	if len(p.Payload) > maxPayload {
		return nil, fmt.Errorf("%w: %d bytes", errPayloadTooLarge, len(p.Payload))
	}
	start := len(dst)
	need := p.encodedLen()
	dst = append(dst, make([]byte, need)...)
	buf := dst[start:]
	buf[0], buf[1] = magic[0], magic[1]
	buf[2] = version
	buf[3] = byte(p.Type)
	buf[4] = p.Flags
	buf[5] = p.Epoch
	putID48(buf[6:12], p.Sender)
	binary.BigEndian.PutUint64(buf[12:20], p.Seq)
	binary.BigEndian.PutUint32(buf[20:24], uint32(len(p.Payload)))
	copy(buf[HeaderLen:], p.Payload)
	sum := crc32.ChecksumIEEE(buf[:HeaderLen+len(p.Payload)])
	binary.BigEndian.PutUint32(buf[HeaderLen+len(p.Payload):], sum)
	return dst, nil
}

// MarshalBytes encodes the packet into a fresh slice.
func (p *Packet) MarshalBytes() ([]byte, error) {
	return p.Marshal(make([]byte, 0, p.encodedLen()))
}

// unmarshalInto validates buf and fills p's header fields, leaving
// p.Payload aliasing buf. It allocates nothing.
func unmarshalInto(p *Packet, buf []byte) error {
	if len(buf) < HeaderLen+TrailerLen {
		return fmt.Errorf("%w: %d bytes", errShortPacket, len(buf))
	}
	if buf[0] != magic[0] || buf[1] != magic[1] {
		return errBadMagic
	}
	if buf[2] != version {
		return fmt.Errorf("%w: %d", errBadVersion, buf[2])
	}
	plen := int(binary.BigEndian.Uint32(buf[20:24]))
	if plen > maxPayload {
		return fmt.Errorf("%w: %d bytes", errPayloadTooLarge, plen)
	}
	total := HeaderLen + plen + TrailerLen
	if len(buf) < total {
		return fmt.Errorf("%w: have %d want %d", errShortPacket, len(buf), total)
	}
	want := binary.BigEndian.Uint32(buf[HeaderLen+plen : total])
	got := crc32.ChecksumIEEE(buf[:HeaderLen+plen])
	if want != got {
		return errBadChecksum
	}
	p.Type = PacketType(buf[3])
	p.Flags = buf[4]
	p.Epoch = buf[5]
	p.Sender = getID48(buf[6:12])
	p.Seq = binary.BigEndian.Uint64(buf[12:20])
	p.Payload = buf[HeaderLen : HeaderLen+plen]
	return nil
}

// PatchHeader rewrites the flags, epoch and sequence number of an
// already-marshalled packet in place and refreshes the CRC trailer.
// The reliability layer uses it to mark retransmissions and to
// renumber queued packets into a new epoch without re-encoding the
// payload (the point of pooling marshal buffers across retransmits).
func PatchHeader(buf []byte, flags, epoch byte, seq uint64) error {
	if len(buf) < HeaderLen+TrailerLen {
		return fmt.Errorf("%w: %d bytes", errShortPacket, len(buf))
	}
	buf[4] = flags
	buf[5] = epoch
	binary.BigEndian.PutUint64(buf[12:20], seq)
	body := buf[: len(buf)-TrailerLen : len(buf)]
	binary.BigEndian.PutUint32(buf[len(buf)-TrailerLen:], crc32.ChecksumIEEE(body))
	return nil
}

func putID48(dst []byte, id ident.ID) {
	v := uint64(id)
	dst[0] = byte(v >> 40)
	dst[1] = byte(v >> 32)
	dst[2] = byte(v >> 24)
	dst[3] = byte(v >> 16)
	dst[4] = byte(v >> 8)
	dst[5] = byte(v)
}

func getID48(src []byte) ident.ID {
	return ident.ID(uint64(src[0])<<40 | uint64(src[1])<<32 |
		uint64(src[2])<<24 | uint64(src[3])<<16 |
		uint64(src[4])<<8 | uint64(src[5]))
}

// String renders the packet for logs.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{%s sender=%s epoch=%d seq=%d flags=%02x len=%d}",
		p.Type, p.Sender, p.Epoch, p.Seq, p.Flags, len(p.Payload))
}
