package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/amuse/smc/internal/event"
)

// Batch framing (FlagBatch).
//
// A batch packet is an ordinary PktEvent packet whose FlagBatch bit is
// set and whose payload carries several independently encoded events
// plus an optional piggybacked cumulative ack. The single-event
// encoding is frozen byte-identical to the seed format, so batching is
// layered strictly above it: each frame body is exactly what
// AppendEvent would have produced for a standalone packet.
//
// Durable deliveries batch the same way: a PktEventDurable packet with
// FlagBatch set carries the same prologue and frames, each frame body
// the unchanged standalone PktEventDurable payload (8-byte cursor, then
// the event encoding — AppendDurableEvent). A batch is homogeneous:
// the packet type says what every frame is.
//
// Batch payload layout (big endian):
//
//	offset  size  field
//	0       1     batch flags (bit 0: prologue carries an ack)
//	1       1     ack epoch   (inbound stream epoch being acknowledged)
//	2       8     ack cumulative sequence number
//	10      n     frames: repeated (uvarint frame length, frame bytes)
//
// The 10-byte prologue is present even when no ack is piggybacked so
// the ack can be patched in at transmit time (PatchBatchAck) without
// re-encoding or shifting the frames — the same in-place patching
// trick PatchHeader uses for retransmit renumbering.

// FlagBatch marks a PktEvent or PktEventDurable packet whose payload
// is a batch of length-prefixed frames behind a BatchHeaderLen
// prologue, rather than one bare payload.
const FlagBatch byte = 1 << 3

// BatchHeaderLen is the fixed batch prologue size in bytes.
const BatchHeaderLen = 10

// batchFlagHasAck marks a prologue carrying a piggybacked ack.
const batchFlagHasAck byte = 1 << 0

var (
	// errNotBatch reports a payload too short to hold a batch prologue.
	errNotBatch = errors.New("wire: not a batch payload")
	// errBatchFrame reports a structurally invalid batch frame.
	errBatchFrame = errors.New("wire: bad batch frame")
)

// AppendBatchHeader appends an empty batch prologue (no ack) to dst.
// Frames follow via AppendBatchEvent/AppendBatchFrame.
func AppendBatchHeader(dst []byte) []byte {
	var zero [BatchHeaderLen]byte
	return append(dst, zero[:]...)
}

// AppendBatchEvent appends one event frame: the frame length as a
// uvarint, then the event's standalone encoding. EventSize computes the
// prefix without a throwaway encode, so batching adds only the prefix
// bytes over concatenated single-event payloads.
func AppendBatchEvent(dst []byte, e *event.Event) []byte {
	dst = appendUvarint(dst, uint64(EventSize(e)))
	return AppendEvent(dst, e)
}

// AppendBatchFrame appends one already-encoded event payload as a
// frame.
func AppendBatchFrame(dst []byte, payload []byte) []byte {
	return appendBytes(dst, payload)
}

// BatchFrameSize returns the encoded size of one frame carrying an
// n-byte payload — the uvarint length prefix plus the payload — so
// senders can account a batch's growth before appending.
func BatchFrameSize(n int) int {
	sz := 1
	for v := uint64(n); v >= 0x80; v >>= 7 {
		sz++
	}
	return sz + n
}

// setBatchAck stores a piggybacked cumulative ack into the prologue of
// a batch payload of at least BatchHeaderLen bytes.
func setBatchAck(payload []byte, epoch byte, cum uint64) {
	payload[0] |= batchFlagHasAck
	payload[1] = epoch
	binary.BigEndian.PutUint64(payload[2:10], cum)
}

// BatchAck extracts the piggybacked ack from a batch payload; ok is
// false when the prologue carries none.
func BatchAck(payload []byte) (epoch byte, cum uint64, ok bool) {
	if len(payload) < BatchHeaderLen || payload[0]&batchFlagHasAck == 0 {
		return 0, 0, false
	}
	return payload[1], binary.BigEndian.Uint64(payload[2:10]), true
}

// BatchFrames returns the frames region of a batch payload — the bytes
// after the prologue. The reliability layer compares this region (not
// the whole payload) when matching a resumed batch against its
// redelivery stash, because the prologue's ack is patched at transmit
// time and therefore differs between attempts.
func BatchFrames(payload []byte) ([]byte, error) {
	if len(payload) < BatchHeaderLen {
		return nil, errNotBatch
	}
	return payload[BatchHeaderLen:], nil
}

// PatchBatchAck rewrites the piggybacked ack of an already-marshalled
// batch packet in place and refreshes the CRC trailer, mirroring
// PatchHeader: the reliability layer stamps the freshest cumulative
// ack onto a queued batch at transmit time without re-encoding it.
func PatchBatchAck(buf []byte, epoch byte, cum uint64) error {
	if len(buf) < HeaderLen+BatchHeaderLen+TrailerLen {
		return fmt.Errorf("%w: %d bytes", errShortPacket, len(buf))
	}
	if buf[4]&FlagBatch == 0 {
		return errNotBatch
	}
	setBatchAck(buf[HeaderLen:], epoch, cum)
	body := buf[: len(buf)-TrailerLen : len(buf)]
	binary.BigEndian.PutUint32(buf[len(buf)-TrailerLen:], crc32.ChecksumIEEE(body))
	return nil
}

// BatchReader iterates the event frames of a batch payload — or, from
// PacketFrames on an unbatched packet, the one frame that is its whole
// payload. Frames alias the payload; pair with DecodeBatchFrameInto to
// borrow safely from a pooled packet.
type BatchReader struct {
	buf  []byte
	off  int
	lone bool // unbatched: buf itself is the one frame still to yield
}

// PacketFrames is the one frame loop of the receive path: it iterates
// the payloads a PktEvent or PktEventDurable packet carries, whether
// that is the packet's lone payload or every frame of a FlagBatch one,
// so a receiver needs no single-packet twin of its batch loop.
func PacketFrames(pkt *Packet) (BatchReader, error) {
	if pkt.Flags&FlagBatch == 0 {
		return BatchReader{buf: pkt.Payload, lone: true}, nil
	}
	return NewBatchReader(pkt.Payload)
}

// NewBatchReader validates the prologue and positions the reader at
// the first frame.
func NewBatchReader(payload []byte) (BatchReader, error) {
	if len(payload) < BatchHeaderLen {
		return BatchReader{}, errNotBatch
	}
	return BatchReader{buf: payload, off: BatchHeaderLen}, nil
}

// More reports whether frames remain.
func (r *BatchReader) More() bool { return r.lone || r.off < len(r.buf) }

// Next returns the next frame's bytes (aliasing the payload). A frame
// length that overruns the payload, a zero-length frame, or a frame
// too short to hold an event header is errBatchFrame: oversize and
// truncated frames fail O(1) here, before any event decode runs.
func (r *BatchReader) Next() ([]byte, error) {
	if r.lone {
		r.lone, r.off = false, len(r.buf)
		return r.buf, nil
	}
	n, sz := binary.Uvarint(r.buf[r.off:])
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad frame length prefix", errBatchFrame)
	}
	r.off += sz
	rem := len(r.buf) - r.off
	if n > uint64(rem) {
		return nil, fmt.Errorf("%w: frame of %d bytes with %d remaining", errBatchFrame, n, rem)
	}
	// 26 bytes is the fixed event header (sender, seq, stamp, count);
	// nothing shorter can be a valid frame.
	if n < 26 {
		return nil, fmt.Errorf("%w: frame of %d bytes", errBatchFrame, n)
	}
	f := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return f, nil
}

// NextDurable returns the next frame of a PktEventDurable batch split
// into its log cursor and the inner event encoding (which decodes with
// DecodeBatchFrameInto against the carrying packet, like Next's).
func (r *BatchReader) NextDurable() (cursor uint64, frame []byte, err error) {
	f, err := r.Next()
	if err != nil {
		return 0, nil, err
	}
	return SplitDurableEvent(f)
}

// DecodeBatchFrameInto decodes one frame (as returned by
// BatchReader.Next) into e — which must be empty — borrowing instead of
// copying: attribute names and string values resolve through the
// intern table (shared storage, no copy) or alias the frame, and bytes
// values alias it outright. When anything was borrowed from a pooled
// packet's frame the event takes its own reference on the packet
// (released with the event's storage), so every event unpacked from
// one packet independently keeps it alive until that event is
// released, even after the receive loop's own Release. The common
// deliver-and-drop path therefore decodes with zero string
// allocations.
//
// Contract for consumers of borrowed events: attribute data is valid
// until the event is released; Clone promotes everything to owned
// copies for anything kept longer. Pair the call with an event from
// event.Acquire — for a non-pooled target the packet reference would
// have no release point, so the decode borrows without retaining and
// the caller must keep pkt alive for as long as the event is used.
func DecodeBatchFrameInto(e *event.Event, frame []byte, pkt *Packet) error {
	if e.Len() != 0 {
		return errDecodeTarget
	}
	borrowed, err := decodeEvent(e, frame, true)
	if err != nil {
		e.Clear() // drop any half-built borrowed attributes
		return err
	}
	if borrowed {
		if e.Pooled() && pkt != nil && pkt.pool != nil {
			pkt.retain()
			e.Borrow(pkt)
		} else {
			e.Borrow(nil)
		}
	}
	return nil
}
