package wire

import "github.com/amuse/smc/internal/event"

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// valueSize returns len(appendValue(nil, v)) without encoding: the type
// byte plus the payload.
func valueSize(v event.Value) int {
	switch v.Type() {
	case event.TypeInt, event.TypeFloat:
		return 1 + 8
	case event.TypeString:
		s, _ := v.Str()
		return 1 + uvarintLen(uint64(len(s))) + len(s)
	case event.TypeBool:
		return 1 + 1
	case event.TypeBytes:
		b, _ := v.BytesRef()
		return 1 + uvarintLen(uint64(len(b))) + len(b)
	default:
		return 1
	}
}

// EventSize returns len(EncodeEvent(e)) without allocating or encoding,
// so the bus's cost model can charge per-byte processing without paying
// for a throwaway encode of every published event.
func EventSize(e *event.Event) int {
	// Sender (8) + seq (8) + stamp (8) + attribute count (2).
	n := 26
	for i, cnt := 0, e.Len(); i < cnt; i++ {
		name, v := e.At(i)
		n += uvarintLen(uint64(len(name))) + len(name) + valueSize(v)
	}
	return n
}
