package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// buildBatch encodes events into a batch payload the way the proxy and
// client batchers do: prologue then one frame per event.
func buildBatch(events ...*event.Event) []byte {
	dst := AppendBatchHeader(nil)
	for _, e := range events {
		dst = AppendBatchEvent(dst, e)
	}
	return dst
}

// TestBatchFrameMatchesSingleEventEncoding: each frame body is
// byte-identical to the frozen standalone encoding — batching is a
// framing layer above the seed format, not a new event encoding.
func TestBatchFrameMatchesSingleEventEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 200; i++ {
		e := randomEvent(rng)
		payload := buildBatch(e)
		r, err := NewBatchReader(payload)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		want := seedEncodeEvent(e)
		if !bytes.Equal(frame, want) {
			t.Fatalf("iteration %d: frame diverges from seed encoding\nframe %x\nseed  %x", i, frame, want)
		}
		if r.More() {
			t.Fatal("unexpected extra frame")
		}
		if sz := EventSize(e); sz != len(frame) {
			t.Fatalf("EventSize %d != frame length %d", sz, len(frame))
		}
	}
}

// TestBatchRoundTripBorrowed: a marshalled batch packet unpacks through
// the pooled borrow-from-packet decode, every event compares equal, and
// each unpacked event holds its own reference on the shared packet — the
// packet recycles only after the last event releases.
func TestBatchRoundTripBorrowed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := make([]*event.Event, 5)
	for i := range events {
		events[i] = randomEvent(rng)
	}
	payload := buildBatch(events...)
	setBatchAck(payload, 3, 41)
	pkt := &Packet{Type: PktEvent, Flags: FlagBatch, Sender: ident.New(9), Seq: 1, Payload: payload}
	buf, err := pkt.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPacketPool()
	in, err := pool.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if in.Flags&FlagBatch == 0 {
		t.Fatal("batch flag lost in transit")
	}
	if ep, cum, ok := BatchAck(in.Payload); !ok || ep != 3 || cum != 41 {
		t.Fatalf("piggyback ack: got (%d,%d,%v), want (3,41,true)", ep, cum, ok)
	}

	r, err := NewBatchReader(in.Payload)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []*event.Event
	for r.More() {
		frame, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		e := event.Acquire()
		if err := DecodeBatchFrameInto(e, frame, in); err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, e)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	for i, e := range decoded {
		if !e.Equal(events[i]) {
			t.Fatalf("event %d mismatch: got %s want %s", i, e, events[i])
		}
	}

	// Receive loop drops its reference first; the events keep the
	// packet alive until each is released.
	in.Release()
	for _, e := range decoded {
		e.Release()
	}
	acq, rec := pool.Stats()
	if acq != rec {
		t.Fatalf("packet leaked: acquired %d recycled %d", acq, rec)
	}
}

// TestPatchBatchAck: the transmit-time ack patch rewrites the
// marshalled buffer in place, the CRC stays valid, and only the
// prologue changes — the frames region is untouched, which is what the
// redelivery stash comparison relies on.
func TestPatchBatchAck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	payload := buildBatch(randomEvent(rng), randomEvent(rng))
	pkt := &Packet{Type: PktEvent, Flags: FlagBatch, Sender: ident.New(2), Seq: 9, Payload: payload}
	buf, err := pkt.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := PatchBatchAck(buf, 7, 12345); err != nil {
		t.Fatal(err)
	}
	in, err := unmarshal(buf)
	if err != nil {
		t.Fatalf("patched packet fails CRC: %v", err)
	}
	ep, cum, ok := BatchAck(in.Payload)
	if !ok || ep != 7 || cum != 12345 {
		t.Fatalf("got ack (%d,%d,%v), want (7,12345,true)", ep, cum, ok)
	}
	got, err := BatchFrames(in.Payload)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := BatchFrames(payload)
	if !bytes.Equal(got, want) {
		t.Fatal("frames region changed by ack patch")
	}

	// Patching a non-batch packet is refused.
	single := &Packet{Type: PktEvent, Sender: ident.New(2), Seq: 10, Payload: EncodeEvent(randomEvent(rng))}
	sbuf, _ := single.MarshalBytes()
	if err := PatchBatchAck(sbuf, 1, 1); err == nil {
		t.Fatal("PatchBatchAck accepted a non-batch packet")
	}
}

// TestBatchReaderHostile pins the O(1) rejection paths: truncated
// prologue, overrunning frame length, impossibly short frame, and the
// valid-but-empty batch.
func TestBatchReaderHostile(t *testing.T) {
	if _, err := NewBatchReader(make([]byte, BatchHeaderLen-1)); err == nil {
		t.Fatal("short prologue accepted")
	}

	// Empty batch: prologue only, zero frames — valid, possibly an
	// ack-only packet.
	r, err := NewBatchReader(make([]byte, BatchHeaderLen))
	if err != nil {
		t.Fatal(err)
	}
	if r.More() {
		t.Fatal("empty batch reports frames")
	}

	// Oversize frame: length prefix promises more bytes than remain.
	over := AppendBatchHeader(nil)
	over = appendUvarint(over, 1<<20)
	over = append(over, make([]byte, 64)...)
	r, _ = NewBatchReader(over)
	if _, err := r.Next(); err == nil {
		t.Fatal("oversize frame accepted")
	}

	// Truncated frame: too short to hold an event header.
	short := AppendBatchHeader(nil)
	short = appendUvarint(short, 4)
	short = append(short, 1, 2, 3, 4)
	r, _ = NewBatchReader(short)
	if _, err := r.Next(); err == nil {
		t.Fatal("short frame accepted")
	}

	// Garbage length prefix: a uvarint that never terminates.
	bad := AppendBatchHeader(nil)
	bad = append(bad, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)
	r, _ = NewBatchReader(bad)
	if _, err := r.Next(); err == nil {
		t.Fatal("unterminated length prefix accepted")
	}
}

// TestPacketFrames: the receive path's one frame loop. An unbatched
// packet yields exactly one frame, its payload, whatever that holds; a
// FlagBatch packet yields what NewBatchReader yields, in order, and
// fails where it fails, with the same errors.
func TestPacketFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, b, c := EncodeEvent(randomEvent(rng)), EncodeEvent(randomEvent(rng)), EncodeEvent(randomEvent(rng))
	frames := func(fs ...[]byte) []byte {
		dst := AppendBatchHeader(nil)
		for _, f := range fs {
			dst = AppendBatchFrame(dst, f)
		}
		return dst
	}
	for _, tc := range []struct {
		name    string
		flags   byte
		payload []byte
		want    [][]byte
		openErr error // from PacketFrames
		nextErr error // from Next, after want
	}{
		{name: "unbatched", payload: a, want: [][]byte{a}},
		{name: "unbatched, other flags set", flags: FlagRetransmit, payload: b, want: [][]byte{b}},
		{name: "unbatched and empty is still one frame", payload: []byte{}, want: [][]byte{{}}},
		{name: "unbatched payload that looks like a batch", payload: frames(a, b), want: [][]byte{frames(a, b)}},
		{name: "batch in order", flags: FlagBatch, payload: frames(a, b, c), want: [][]byte{a, b, c}},
		{name: "batch of one", flags: FlagBatch | FlagRetransmit, payload: frames(c), want: [][]byte{c}},
		{name: "empty batch", flags: FlagBatch, payload: frames(), want: nil},
		{name: "short prologue", flags: FlagBatch, payload: make([]byte, BatchHeaderLen-1), openErr: errNotBatch},
		{name: "corrupt prefix after a good frame", flags: FlagBatch,
			payload: append(frames(a), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80),
			want:    [][]byte{a}, nextErr: errBatchFrame},
		{name: "frame overruns the payload", flags: FlagBatch,
			payload: append(appendUvarint(frames(a, b), 1<<20), make([]byte, 64)...),
			want:    [][]byte{a, b}, nextErr: errBatchFrame},
		{name: "frame too short for an event", flags: FlagBatch,
			payload: append(appendUvarint(AppendBatchHeader(nil), 4), 1, 2, 3, 4), nextErr: errBatchFrame},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := PacketFrames(&Packet{Type: PktEvent, Flags: tc.flags, Payload: tc.payload})
			if !errors.Is(err, tc.openErr) || (err == nil) != (tc.openErr == nil) {
				t.Fatalf("PacketFrames error = %v, want %v", err, tc.openErr)
			}
			if err != nil {
				return
			}
			for i, want := range tc.want {
				if !r.More() {
					t.Fatalf("frame %d: More() = false", i)
				}
				if got, err := r.Next(); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("frame %d = %x, %v; want %x", i, got, err, want)
				}
			}
			if tc.nextErr == nil {
				if r.More() {
					t.Fatal("frames left over")
				}
				return
			}
			if !r.More() {
				t.Fatal("More() = false ahead of the corrupt frame")
			}
			if _, err := r.Next(); !errors.Is(err, tc.nextErr) {
				t.Fatalf("Next error = %v, want %v", err, tc.nextErr)
			}
			// What a plain BatchReader says about the same bytes.
			ref, _ := NewBatchReader(tc.payload)
			var refErr error
			for refErr == nil && ref.More() {
				_, refErr = ref.Next()
			}
			if !errors.Is(refErr, tc.nextErr) {
				t.Fatalf("NewBatchReader reports %v for the same payload", refErr)
			}
		})
	}

	// A lone durable delivery splits like a batched one.
	dur := AppendDurableEvent(nil, 77, randomEvent(rng))
	r, err := PacketFrames(&Packet{Type: PktEventDurable, Payload: dur})
	if err != nil {
		t.Fatal(err)
	}
	cursor, frame, err := r.NextDurable()
	if err != nil || cursor != 77 || !bytes.Equal(frame, dur[8:]) || r.More() {
		t.Fatalf("lone durable frame: cursor %d, err %v, more %v", cursor, err, r.More())
	}
}

// FuzzBatchRoundTrip is the batch-framing companion of
// FuzzEventRoundTrip, run alongside it in the CI fuzz step: fuzzed
// batch payloads either fail frame iteration/decode or yield events
// whose re-encoding (seed encoder) rebuilds into a batch that parses
// back to equal events. Single-event payloads are in the corpus too —
// they must be handled (rejected or decoded) without crashing.
func FuzzBatchRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	// Valid batches of assorted sizes, with and without piggyback acks.
	for _, n := range []int{1, 2, 5, 16} {
		events := make([]*event.Event, n)
		for i := range events {
			events[i] = randomEvent(rng)
		}
		payload := buildBatch(events...)
		if n%2 == 0 {
			setBatchAck(payload, byte(n), uint64(n)*100)
		}
		f.Add(payload)
	}
	// Empty batch (prologue only).
	f.Add(make([]byte, BatchHeaderLen))
	// Truncated prologue.
	f.Add(make([]byte, BatchHeaderLen-2))
	// Oversize frame: length prefix overruns the payload.
	over := AppendBatchHeader(nil)
	over = appendUvarint(over, 1<<16)
	f.Add(append(over, 0xFF, 0xEE))
	// Truncated frame: promised length but the event inside is cut off.
	trunc := buildBatch(randomEvent(rng))
	f.Add(trunc[:len(trunc)-3])
	// A bare single-event payload (no batch framing) — foreign bytes.
	f.Add(EncodeEvent(randomEvent(rng)))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewBatchReader(data)
		if err != nil {
			return // not a batch; rejected without crashing
		}
		_, _, _ = BatchAck(data)
		var decoded []*event.Event
		for r.More() {
			frame, err := r.Next()
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
			decoded = append(decoded, e)
		}
		// Rebuild canonically and re-parse: the framing round-trips.
		rebuilt := AppendBatchHeader(nil)
		for _, e := range decoded {
			if sz, enc := EventSize(e), EncodeEvent(e); sz != len(enc) {
				t.Fatalf("EventSize %d != encoded length %d", sz, len(enc))
			} else if seed := seedEncodeEvent(e); !bytes.Equal(enc, seed) {
				t.Fatalf("re-encode diverges from seed encoder\ninline %x\nseed   %x", enc, seed)
			}
			rebuilt = AppendBatchEvent(rebuilt, e)
		}
		rr, err := NewBatchReader(rebuilt)
		if err != nil {
			t.Fatalf("canonical rebuild does not parse: %v", err)
		}
		for i := 0; rr.More(); i++ {
			frame, err := rr.Next()
			if err != nil {
				t.Fatalf("canonical rebuild frame %d: %v", i, err)
			}
			e2, err := DecodeEvent(frame)
			if err != nil {
				t.Fatalf("canonical rebuild frame %d decode: %v", i, err)
			}
			if !e2.Equal(decoded[i]) {
				t.Fatalf("canonical rebuild frame %d decodes differently", i)
			}
		}
		// Frame lengths are uvarints: rebuilt length is deterministic.
		if len(decoded) == 0 && len(rebuilt) != BatchHeaderLen {
			t.Fatal("empty rebuild grew a frame")
		}
	})
}
