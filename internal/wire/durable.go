package wire

import (
	"encoding/binary"
	"fmt"

	"github.com/amuse/smc/internal/event"
)

// Durable-subscription control payloads and the durable delivery
// framing. The framing follows the FlagBatch discipline: a durable
// delivery is a fixed 8-byte cursor prefix followed by the unchanged
// single-event encoding, so the frozen event format is layered under,
// never altered.

// DurableResume is the PktDurableResume payload: bind the sender to
// the named durable consumer and replay retained events after Cursor.
// Epoch identifies the log incarnation the cursor belongs to; a
// mismatch (including the fresh-consumer zero) makes the bus replay
// from the oldest retained event instead of trusting the cursor.
type DurableResume struct {
	Name   string
	Epoch  uint64
	Cursor uint64
}

// AppendDurableResume encodes a resume payload.
func AppendDurableResume(dst []byte, r DurableResume) []byte {
	dst = appendString(dst, r.Name)
	dst = appendUvarint(dst, r.Epoch)
	return appendUvarint(dst, r.Cursor)
}

// DecodeDurableResume decodes a resume payload.
func DecodeDurableResume(buf []byte) (DurableResume, error) {
	r := &reader{buf: buf}
	name, err := r.string()
	if err != nil {
		return DurableResume{}, err
	}
	epoch, err := r.uvarint()
	if err != nil {
		return DurableResume{}, err
	}
	cursor, err := r.uvarint()
	if err != nil {
		return DurableResume{}, err
	}
	if r.remaining() != 0 {
		return DurableResume{}, fmt.Errorf("%w: durable-resume trailing bytes", errBadEncoding)
	}
	return DurableResume{Name: name, Epoch: epoch, Cursor: cursor}, nil
}

// DurableAck is the PktDurableAck payload: the log epoch in force and
// the cursor replay resumes after (everything <= From is the client's
// dedup floor; deliveries always carry cursors > From).
type DurableAck struct {
	Epoch uint64
	From  uint64
}

// AppendDurableAck encodes a resume acknowledgement.
func AppendDurableAck(dst []byte, a DurableAck) []byte {
	dst = appendUvarint(dst, a.Epoch)
	return appendUvarint(dst, a.From)
}

// DecodeDurableAck decodes a resume acknowledgement.
func DecodeDurableAck(buf []byte) (DurableAck, error) {
	r := &reader{buf: buf}
	epoch, err := r.uvarint()
	if err != nil {
		return DurableAck{}, err
	}
	from, err := r.uvarint()
	if err != nil {
		return DurableAck{}, err
	}
	if r.remaining() != 0 {
		return DurableAck{}, fmt.Errorf("%w: durable-ack trailing bytes", errBadEncoding)
	}
	return DurableAck{Epoch: epoch, From: from}, nil
}

// durableCursorLen is the fixed cursor prefix of a PktEventDurable
// payload.
const durableCursorLen = 8

// AppendDurableEvent frames one durable delivery: cursor prefix, then
// the frozen single-event encoding.
func AppendDurableEvent(dst []byte, cursor uint64, e *event.Event) []byte {
	var tmp [durableCursorLen]byte
	binary.BigEndian.PutUint64(tmp[:], cursor)
	dst = append(dst, tmp[:]...)
	return AppendEvent(dst, e)
}

// SplitDurableEvent splits a PktEventDurable payload into its cursor
// and the inner event encoding (which decodes with the standard event
// decoders, e.g. DecodeBatchFrameInto against the carrying packet).
func SplitDurableEvent(payload []byte) (cursor uint64, frame []byte, err error) {
	if len(payload) < durableCursorLen {
		return 0, nil, fmt.Errorf("%w: durable event %d bytes", errTruncated, len(payload))
	}
	return binary.BigEndian.Uint64(payload[:durableCursorLen]), payload[durableCursorLen:], nil
}

// DecodeEventBacked decodes an event payload into e — which must be
// empty and pooled — borrowing against an arbitrary backing buffer
// owner instead of a packet: the durable log's segments implement
// event.Backing, so replayed events alias record bytes in place
// exactly like live traffic aliases inbound packets. The caller passes
// an already-retained reference; on a borrowing decode the event takes
// ownership of it (released with the event's storage) and bound
// reports true. When nothing was borrowed — or on error — bound is
// false and the caller still owns the reference.
func DecodeEventBacked(e *event.Event, payload []byte, b event.Backing) (bound bool, err error) {
	if e.Len() != 0 {
		return false, errDecodeTarget
	}
	borrowed, err := decodeEvent(e, payload, true)
	if err != nil {
		e.Clear()
		return false, err
	}
	if borrowed {
		if e.Pooled() && b != nil {
			e.Borrow(b)
			return true, nil
		}
		e.Borrow(nil)
	}
	return false, nil
}
