package wire

import (
	"math/rand"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// Random structure generators for property tests. Sizes are kept
// within the event package's validity limits so every generated
// structure is encodable.

func randomValue(rng *rand.Rand) event.Value {
	switch rng.Intn(5) {
	case 0:
		return event.Int(rng.Int63() - rng.Int63())
	case 1:
		return event.Float(rng.NormFloat64() * 1e6)
	case 2:
		n := rng.Intn(64)
		b := make([]byte, n)
		rng.Read(b)
		return event.Str(string(b))
	case 3:
		return event.Bool(rng.Intn(2) == 0)
	default:
		n := rng.Intn(128)
		b := make([]byte, n)
		rng.Read(b)
		return event.Bytes(b)
	}
}

func randomName(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz-0123456789"
	n := 1 + rng.Intn(20)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

func randomEvent(rng *rand.Rand) *event.Event {
	e := event.New()
	e.Sender = ident.New(rng.Uint64())
	e.Seq = rng.Uint64()
	e.Stamp = time.Unix(rng.Int63n(1<<32), rng.Int63n(1e9))
	for i := 0; i < rng.Intn(event.MaxAttrs); i++ {
		e.Set(randomName(rng), randomValue(rng))
	}
	return e
}

func randomFilter(rng *rand.Rand) *event.Filter {
	ops := []event.Op{
		event.OpEq, event.OpNe, event.OpLt, event.OpLe, event.OpGt,
		event.OpGe, event.OpPrefix, event.OpSuffix, event.OpContains,
		event.OpExists,
	}
	f := event.NewFilter()
	for i := 0; i < rng.Intn(16); i++ {
		op := ops[rng.Intn(len(ops))]
		if op == event.OpExists {
			f.Where(randomName(rng), op, event.Value{})
		} else {
			f.Where(randomName(rng), op, randomValue(rng))
		}
	}
	return f
}

// TestEventRoundTripProperty: any valid event survives encode/decode
// exactly, including metadata.
func TestEventRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < 2000; i++ {
		e := randomEvent(rng)
		if err := e.Validate(); err != nil {
			t.Fatalf("generator produced invalid event: %v", err)
		}
		got, err := DecodeEvent(EncodeEvent(e))
		if err != nil {
			t.Fatalf("iteration %d: decode: %v\nevent: %s", i, err, e)
		}
		if !got.Equal(e) {
			t.Fatalf("iteration %d: roundtrip mismatch\n got %s\nwant %s", i, got, e)
		}
		if !got.Stamp.Equal(e.Stamp) {
			t.Fatalf("iteration %d: stamp %v != %v", i, got.Stamp, e.Stamp)
		}
	}
}

// TestFilterRoundTripProperty: any valid filter survives encode/decode
// with identical matching behaviour.
func TestFilterRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for i := 0; i < 2000; i++ {
		f := randomFilter(rng)
		got, err := DecodeFilter(EncodeFilter(f))
		if err != nil {
			t.Fatalf("iteration %d: decode: %v\nfilter: %s", i, err, f)
		}
		if !got.Equal(f) {
			t.Fatalf("iteration %d: roundtrip mismatch\n got %s\nwant %s", i, got, f)
		}
		// Matching behaviour is preserved on sampled events.
		for s := 0; s < 5; s++ {
			e := randomEvent(rng)
			if f.Matches(e) != got.Matches(e) {
				t.Fatalf("iteration %d: matching diverges after roundtrip", i)
			}
		}
	}
}

// TestEventThroughPacketProperty pushes random events through the full
// packet layer (marshal → unmarshal → decode).
func TestEventThroughPacketProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for i := 0; i < 1000; i++ {
		e := randomEvent(rng)
		pkt := &Packet{
			Type:    PktEvent,
			Sender:  e.Sender,
			Seq:     uint64(i),
			Payload: EncodeEvent(e),
		}
		buf, err := pkt.MarshalBytes()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := unmarshal(buf)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		dec, err := DecodeEvent(got.Payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !dec.Equal(e) {
			t.Fatalf("through-packet mismatch at %d", i)
		}
	}
}
