package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/amuse/smc/internal/event"
)

// buildDurableBatch frames durable deliveries (cursor i+first for the
// i-th event) into a PktEventDurable|FlagBatch payload.
func buildDurableBatch(first uint64, events ...*event.Event) []byte {
	buf := AppendBatchHeader(nil)
	for i, e := range events {
		buf = AppendBatchFrame(buf, AppendDurableEvent(nil, first+uint64(i), e))
	}
	return buf
}

// TestDurableEventFramingPinned: the single durable delivery is the
// 8-byte big-endian cursor followed by the frozen event encoding, and a
// durable batch frame is exactly that payload, unchanged — batching is
// layered over the durable framing as strictly as the durable framing
// is layered over the event encoding.
func TestDurableEventFramingPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := []*event.Event{randomEvent(rng), randomEvent(rng), randomEvent(rng)}
	batch := buildDurableBatch(900, events...)
	r, err := NewBatchReader(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		cursor := 900 + uint64(i)
		single := AppendDurableEvent(nil, cursor, e)
		var want []byte
		want = binary.BigEndian.AppendUint64(want, cursor)
		want = append(want, seedEncodeEvent(e)...)
		if !bytes.Equal(single, want) {
			t.Fatalf("event %d: durable payload drifted from cursor‖seed-encoding", i)
		}
		gotCursor, frame, err := r.NextDurable()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if gotCursor != cursor || !bytes.Equal(frame, single[durableCursorLen:]) {
			t.Fatalf("frame %d: cursor %d, frame differs from the standalone payload", i, gotCursor)
		}
		d, err := DecodeEvent(frame)
		if err != nil || !d.Equal(e) {
			t.Fatalf("frame %d: decode %v", i, err)
		}
	}
	if r.More() {
		t.Fatal("extra frames")
	}
}

// FuzzDurableBatchRoundTrip is the durable companion of
// FuzzBatchRoundTrip (every on-wire form gets its own target): arbitrary
// bytes taken as a PktEventDurable|FlagBatch payload never panic, and
// every frame the reader accepts splits into a cursor and an event whose
// canonical re-framing is stable — it parses back to the same cursor and
// an equal event, and re-encodes to the same bytes.
func FuzzDurableBatchRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 5, 16} {
		events := make([]*event.Event, n)
		for i := range events {
			events[i] = randomEvent(rng)
		}
		payload := buildDurableBatch(uint64(n)*1000, events...)
		if n%2 == 0 {
			setBatchAck(payload, byte(n), uint64(n)*100)
		}
		f.Add(payload)
	}
	f.Add(make([]byte, BatchHeaderLen))   // empty batch
	f.Add(make([]byte, BatchHeaderLen-2)) // truncated prologue
	// A frame long enough for the reader but too short for cursor + event.
	short := AppendBatchHeader(nil)
	f.Add(AppendBatchFrame(short, make([]byte, 30)))
	// A live-event batch (no cursors) offered as a durable one.
	f.Add(buildBatch(randomEvent(rng), randomEvent(rng)))
	// A bare single durable delivery — foreign bytes for this reader.
	f.Add(AppendDurableEvent(nil, 77, randomEvent(rng)))
	trunc := buildDurableBatch(5, randomEvent(rng))
	f.Add(trunc[:len(trunc)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewBatchReader(data)
		if err != nil {
			return
		}
		_, _, _ = BatchAck(data)
		var cursors []uint64
		var decoded []*event.Event
		for r.More() {
			cursor, frame, err := r.NextDurable()
			if err != nil {
				return // malformed framing is rejected, never crashes
			}
			e, err := DecodeEvent(frame)
			if err != nil {
				return // malformed frame body: receiver drops the batch
			}
			if e.Len() > event.MaxAttrs {
				t.Fatalf("frame decode admitted %d attributes", e.Len())
			}
			cursors = append(cursors, cursor)
			decoded = append(decoded, e)
		}
		rebuilt := AppendBatchHeader(nil)
		for i, e := range decoded {
			rebuilt = AppendBatchFrame(rebuilt, AppendDurableEvent(nil, cursors[i], e))
		}
		rr, err := NewBatchReader(rebuilt)
		if err != nil {
			t.Fatalf("canonical rebuild does not parse: %v", err)
		}
		again := AppendBatchHeader(nil)
		for i := range decoded {
			cursor, frame, err := rr.NextDurable()
			if err != nil {
				t.Fatalf("canonical rebuild frame %d: %v", i, err)
			}
			e2, err := DecodeEvent(frame)
			if err != nil {
				t.Fatalf("canonical rebuild frame %d decode: %v", i, err)
			}
			if cursor != cursors[i] || !e2.Equal(decoded[i]) {
				t.Fatalf("canonical rebuild frame %d decodes differently", i)
			}
			if !bytes.Equal(frame, seedEncodeEvent(e2)) {
				t.Fatalf("frame %d diverges from the seed encoder", i)
			}
			again = AppendBatchFrame(again, AppendDurableEvent(nil, cursor, e2))
		}
		if rr.More() {
			t.Fatal("canonical rebuild grew a frame")
		}
		if !bytes.Equal(again, rebuilt) {
			t.Fatal("canonical durable batch does not re-encode to the same bytes")
		}
	})
}
