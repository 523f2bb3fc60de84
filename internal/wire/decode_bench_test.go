//go:build !race

// The decode benchmark and the allocation pin that reads it: neither
// means anything under the race detector, whose instrumentation
// allocates.

package wire

import (
	"strings"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// BenchmarkDecodeEvent measures the receive-side decode of one small
// sensor reading, the shape that dominates the paper's workloads
// (§II-C):
//
//   - interned: DecodeEventInto where every name and string value is
//     in the intern table — the steady-state hot path, pinned at
//     no allocation by TestDecodeEventZeroAlloc;
//   - borrowed: DecodeEventInto with unknown names, which alias the
//     pooled packet's buffer (still allocation-free in steady state —
//     event, strings and packet all recycle);
//   - owned: the copying DecodeEvent the bus used before PR 4, for
//     comparison.
func BenchmarkDecodeEvent(b *testing.B) {
	interned, borrowed := decodeShapes()
	for _, tc := range []struct {
		name string
		e    *event.Event
	}{
		{"interned", interned},
		{"borrowed", borrowed},
	} {
		b.Run(tc.name, func(b *testing.B) {
			step := pooledDecoder(b, tc.e)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}

	b.Run("owned", func(b *testing.B) {
		payload := EncodeEvent(interned)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeEvent(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDecodeEventZeroAlloc pins the pooled decode at no allocation on
// both shapes: packet, event and strings all recycle or alias.
func TestDecodeEventZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin")
	}
	interned, borrowed := decodeShapes()
	for name, e := range map[string]*event.Event{"interned": interned, "borrowed": borrowed} {
		step := pooledDecoder(t, e)
		step() // warm the packet and event pools outside the measurement
		if allocs := testing.AllocsPerRun(20000, step); allocs != 0 {
			t.Errorf("%s decode allocates %.2f objects/event, want 0", name, allocs)
		}
	}
}

// decodeShapes returns the benchmark's two readings.
func decodeShapes() (interned, borrowed *event.Event) {
	interned = event.New()
	interned.Sender = ident.New(0x51)
	interned.Seq = 3
	interned.Stamp = time.Unix(1700000000, 0)
	interned.Set(event.AttrType, event.Str("reading"))
	interned.Set("kind", event.Str("pulse"))
	interned.SetFloat("value", 72.5)
	interned.SetInt("seq", 12345)

	// Names and string value longer than the event name limit: LookupIntern
	// never counts them, so the intern table cannot learn them mid-run
	// and every iteration measures the true borrow-alias path. (The
	// event violates Validate's name limit, but this benchmark only
	// exercises the decoder, which — like the seed's — does not enforce
	// it.)
	longName := func(prefix string) string {
		return prefix + strings.Repeat("x", 255) // the limit
	}
	borrowed = event.New()
	borrowed.Sender = ident.New(0x52)
	borrowed.Seq = 4
	borrowed.Stamp = time.Unix(1700000000, 0)
	borrowed.SetStr(longName("a-"), longName("value-"))
	borrowed.SetBytes(longName("b-"), make([]byte, 64))
	borrowed.SetFloat(longName("c-"), 1.25)
	return interned, borrowed
}

// pooledDecoder returns one receive of e as the bus performs it:
// unmarshal its packet from a pool, decode into a pooled event,
// release both.
func pooledDecoder(tb testing.TB, e *event.Event) (step func()) {
	pkt := &Packet{Type: PktEvent, Sender: e.Sender, Seq: e.Seq, Payload: EncodeEvent(e)}
	raw, err := pkt.MarshalBytes()
	if err != nil {
		tb.Fatal(err)
	}
	pool := NewPacketPool()
	return func() {
		pkt, err := pool.Unmarshal(raw)
		if err != nil {
			tb.Fatal(err)
		}
		e := event.Acquire()
		if err := DecodeEventInto(e, pkt); err != nil {
			tb.Fatal(err)
		}
		pkt.Release()
		e.Release()
	}
}
