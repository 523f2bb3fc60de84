package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
	"unsafe"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// Encoding of events, filters and values inside packet payloads.
//
// All multi-byte integers are big endian. Strings and byte slices are
// length-prefixed with a uvarint. Attribute/constraint counts use a
// single uint16.

var (
	// errTruncated reports a payload ending mid-structure.
	errTruncated = errors.New("wire: truncated payload")
	// errBadEncoding reports a structurally invalid payload.
	errBadEncoding = errors.New("wire: bad encoding")
)

type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, errTruncated
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) uint16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) uint64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.off += n
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, errTruncated
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) string() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendValue encodes a value: 1 type byte then the payload.
func appendValue(dst []byte, v event.Value) []byte {
	dst = append(dst, byte(v.Type()))
	switch v.Type() {
	case event.TypeInt:
		i, _ := v.Int()
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], uint64(i))
		dst = append(dst, tmp[:]...)
	case event.TypeFloat:
		f, _ := v.Float()
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], math.Float64bits(f))
		dst = append(dst, tmp[:]...)
	case event.TypeString:
		s, _ := v.Str()
		dst = appendString(dst, s)
	case event.TypeBool:
		b, _ := v.Bool()
		if b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case event.TypeBytes:
		b, _ := v.BytesRef() // read-only: appended, never retained
		dst = appendBytes(dst, b)
	}
	return dst
}

// bytesToString reinterprets b as a string without copying. The result
// aliases b's backing array: it is only handed out by the borrowing
// decode path, where the event's Borrow backing keeps the buffer alive
// and immutable.
func bytesToString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// internOrBorrow turns raw name/string bytes into a string without
// copying: the interned instance when the spelling is well known, a
// string aliasing b otherwise (reported through borrowed).
func internOrBorrow(b []byte, borrowed *bool) string {
	if s, ok := event.LookupIntern(b); ok {
		return s
	}
	if len(b) > 0 {
		*borrowed = true
	}
	return bytesToString(b)
}

func readValue(r *reader) (event.Value, error) {
	return readValueBorrow(r, false, nil)
}

// readValueBorrow decodes one value. In borrow mode string payloads
// resolve through the intern table or alias the read buffer, and bytes
// payloads alias it outright; *borrowed is set when any aliasing
// happened.
func readValueBorrow(r *reader, borrow bool, borrowed *bool) (event.Value, error) {
	tb, err := r.byte()
	if err != nil {
		return event.Value{}, err
	}
	switch event.Type(tb) {
	case event.TypeInt:
		u, err := r.uint64()
		if err != nil {
			return event.Value{}, err
		}
		return event.Int(int64(u)), nil
	case event.TypeFloat:
		u, err := r.uint64()
		if err != nil {
			return event.Value{}, err
		}
		return event.Float(math.Float64frombits(u)), nil
	case event.TypeString:
		b, err := r.bytes()
		if err != nil {
			return event.Value{}, err
		}
		if borrow {
			return event.Str(internOrBorrow(b, borrowed)), nil
		}
		return event.Str(string(b)), nil
	case event.TypeBool:
		b, err := r.byte()
		if err != nil {
			return event.Value{}, err
		}
		if b > 1 {
			return event.Value{}, fmt.Errorf("%w: bool byte %d", errBadEncoding, b)
		}
		return event.Bool(b == 1), nil
	case event.TypeBytes:
		b, err := r.bytes()
		if err != nil {
			return event.Value{}, err
		}
		if borrow {
			if len(b) > 0 {
				*borrowed = true
			}
			return event.BytesAlias(b), nil
		}
		return event.Bytes(b), nil
	default:
		return event.Value{}, fmt.Errorf("%w: value type %d", errBadEncoding, tb)
	}
}

// AppendEvent encodes an event payload: origin sender (8 bytes, 48-bit
// ID), origin sequence number, stamp (unixnano), count, then name/value
// pairs in sorted name order (deterministic encoding). The origin
// fields travel with the event so that per-sender ordering and identity
// survive relaying through the bus (§II-C defines ordering per original
// sending component). Events store attributes name-sorted, so the
// encoder is a straight index loop — no sort, no closure.
func AppendEvent(dst []byte, e *event.Event) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(e.Sender))
	dst = append(dst, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], e.Seq)
	dst = append(dst, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(e.Stamp.UnixNano()))
	dst = append(dst, tmp[:]...)
	binary.BigEndian.PutUint16(tmp[:2], uint16(e.Len()))
	dst = append(dst, tmp[:2]...)
	for i, n := 0, e.Len(); i < n; i++ {
		name, v := e.At(i)
		dst = appendString(dst, name)
		dst = appendValue(dst, v)
	}
	return dst
}

// EncodeEvent encodes an event into a fresh payload slice.
func EncodeEvent(e *event.Event) []byte {
	return AppendEvent(make([]byte, 0, 64+e.Len()*24), e)
}

// minAttrEncoded is the smallest possible encoding of one attribute:
// a 1-byte name length prefix (empty name), the value type byte, and
// at least one payload byte (a bool, or an empty string's own length
// prefix). Every valid attribute is at least this large, so a count
// whose minimum footprint exceeds the remaining payload proves
// truncation before the decode loop runs — a hostile short packet
// fails O(1) instead of allocating attributes until it hits the end.
const minAttrEncoded = 3

// DecodeEvent decodes an event payload, including the origin sender
// and sequence number. Every attribute name and string/bytes payload
// is an owned copy; for the allocation-free borrowing decode used on
// the receive hot path see DecodeEventInto.
func DecodeEvent(buf []byte) (*event.Event, error) {
	e := event.New()
	if _, err := decodeEvent(e, buf, false); err != nil {
		return nil, err
	}
	return e, nil
}

// errDecodeTarget reports a DecodeEventInto target that already
// carries attributes.
var errDecodeTarget = errors.New("wire: decode target event not empty")

// DecodeEventInto decodes the lone event payload of an unbatched
// packet into e: DecodeBatchFrameInto with the whole payload as the
// frame.
func DecodeEventInto(e *event.Event, pkt *Packet) error {
	return DecodeBatchFrameInto(e, pkt.Payload, pkt)
}

// decodeEvent is the shared decode core; it reports whether any
// attribute data aliases buf.
func decodeEvent(e *event.Event, buf []byte, borrow bool) (bool, error) {
	r := &reader{buf: buf}
	sender, err := r.uint64()
	if err != nil {
		return false, err
	}
	seq, err := r.uint64()
	if err != nil {
		return false, err
	}
	stampNano, err := r.uint64()
	if err != nil {
		return false, err
	}
	count, err := r.uint16()
	if err != nil {
		return false, err
	}
	if int(count) > event.MaxAttrs {
		return false, fmt.Errorf("%w: %d attributes", errBadEncoding, count)
	}
	if int(count)*minAttrEncoded > r.remaining() {
		return false, fmt.Errorf("%w: %d attributes in %d bytes", errTruncated, count, r.remaining())
	}
	e.Sender = ident.New(sender)
	e.Seq = seq
	e.Stamp = time.Unix(0, int64(stampNano))
	borrowed := false
	for i := 0; i < int(count); i++ {
		nb, err := r.bytes()
		if err != nil {
			return borrowed, err
		}
		var name string
		if borrow {
			name = internOrBorrow(nb, &borrowed)
		} else {
			name = string(nb)
		}
		v, err := readValueBorrow(r, borrow, &borrowed)
		if err != nil {
			return borrowed, err
		}
		// Our encoder writes attributes in sorted name order, so the
		// append fast path builds the inline form with no searching or
		// shifting; a foreign encoder's unsorted (or duplicated) names
		// fall back to the general insert.
		if !e.Append(name, v) {
			e.Set(name, v)
		}
	}
	if r.remaining() != 0 {
		return borrowed, fmt.Errorf("%w: %d trailing bytes", errBadEncoding, r.remaining())
	}
	return borrowed, nil
}

// appendFilter encodes a filter payload: count then constraints
// (name, op byte, value; OpExists omits the value).
func appendFilter(dst []byte, f *event.Filter) []byte {
	cs := f.Constraints()
	var tmp [2]byte
	binary.BigEndian.PutUint16(tmp[:], uint16(len(cs)))
	dst = append(dst, tmp[:]...)
	for _, c := range cs {
		dst = appendString(dst, c.Name)
		dst = append(dst, byte(c.Op))
		if c.Op != event.OpExists {
			dst = appendValue(dst, c.Value)
		}
	}
	return dst
}

// EncodeFilter encodes a filter into a fresh payload slice.
func EncodeFilter(f *event.Filter) []byte {
	return appendFilter(make([]byte, 0, 16+f.Len()*24), f)
}

// DecodeFilter decodes a filter payload.
func DecodeFilter(buf []byte) (*event.Filter, error) {
	r := &reader{buf: buf}
	count, err := r.uint16()
	if err != nil {
		return nil, err
	}
	if int(count) > event.MaxAttrs {
		return nil, fmt.Errorf("%w: %d constraints", errBadEncoding, count)
	}
	// Smallest constraint: 1-byte name prefix + 1 op byte (OpExists
	// carries no value) — same O(1) truncation rejection as events.
	if int(count)*2 > r.remaining() {
		return nil, fmt.Errorf("%w: %d constraints in %d bytes", errTruncated, count, r.remaining())
	}
	cs := make([]event.Constraint, 0, count)
	for i := 0; i < int(count); i++ {
		name, err := r.string()
		if err != nil {
			return nil, err
		}
		opb, err := r.byte()
		if err != nil {
			return nil, err
		}
		op := event.Op(opb)
		c := event.Constraint{Name: name, Op: op}
		if op != event.OpExists {
			v, err := readValue(r)
			if err != nil {
				return nil, err
			}
			c.Value = v
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadEncoding, err)
		}
		cs = append(cs, c)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadEncoding, r.remaining())
	}
	return event.NewFilter(cs...), nil
}
