package wire

import (
	"errors"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// borrowTestEvent builds an event whose names and values are NOT in
// the intern table, so a borrowing decode must alias the packet.
func borrowTestEvent() *event.Event {
	e := event.New()
	e.Sender = ident.New(0x42)
	e.Seq = 7
	e.Stamp = time.Unix(1700000001, 500)
	e.SetStr("zz-borrow-name", "zz-borrow-value")
	e.SetBytes("zz-borrow-raw", []byte{1, 2, 3, 4})
	e.SetInt("zz-count", 99)
	return e
}

func marshalEventPacket(t testing.TB, e *event.Event) []byte {
	t.Helper()
	pkt := &Packet{Type: PktEvent, Sender: e.Sender, Seq: e.Seq, Payload: EncodeEvent(e)}
	raw, err := pkt.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDecodeEventIntoBorrows: a borrowing decode of unknown names
// produces a borrowed event that pins the packet — the packet does not
// recycle at the receive loop's Release, only when the event's own
// storage is reclaimed.
func TestDecodeEventIntoBorrows(t *testing.T) {
	pool := NewPacketPool()
	src := borrowTestEvent()
	raw := marshalEventPacket(t, src)

	pkt, err := pool.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	e := event.Acquire()
	if err := DecodeEventInto(e, pkt); err != nil {
		t.Fatal(err)
	}
	if !e.Borrowed() {
		t.Fatal("decode of unknown names should borrow")
	}
	if !e.Equal(src) {
		t.Fatalf("borrowed decode mismatch\n got %s\nwant %s", e, src)
	}
	pkt.Release() // the receive loop's release: event still holds its ref
	if _, rec := pool.Stats(); rec != 0 {
		t.Fatalf("packet recycled while a borrowed event was live (recycled=%d)", rec)
	}
	if !e.Equal(src) {
		t.Fatal("borrowed data corrupted after the receive loop's release")
	}
	e.Release()
	if acq, rec := pool.Stats(); acq != rec {
		t.Fatalf("packet leak after event release: acquired=%d recycled=%d", acq, rec)
	}
}

// TestDecodeEventIntoClonePromotes: a clone of a borrowed event owns
// its strings and survives the packet buffer being recycled and
// overwritten by a later decode.
func TestDecodeEventIntoClonePromotes(t *testing.T) {
	pool := NewPacketPool()
	src := borrowTestEvent()
	raw := marshalEventPacket(t, src)

	pkt, err := pool.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	e := event.Acquire()
	if err := DecodeEventInto(e, pkt); err != nil {
		t.Fatal(err)
	}
	pkt.Release()

	clone := e.Clone()
	if clone.Borrowed() {
		t.Fatal("clone of a borrowed event must not be borrowed")
	}
	e.Release() // recycles the packet: the borrowed buffer is now free

	// Overwrite the recycled buffer: decode a different event of the
	// same shape through the same pool (sync.Pool hands the buffer
	// back on this single-goroutine path).
	other := event.New()
	other.Sender = ident.New(0x43)
	other.Seq = 8
	other.Stamp = time.Unix(1700000002, 0)
	other.SetStr("aa-other-name", "aa-other-value")
	other.SetBytes("aa-other-raw", []byte{9, 9, 9, 9})
	other.SetInt("aa-other-n", 11)
	pkt2, err := pool.Unmarshal(marshalEventPacket(t, other))
	if err != nil {
		t.Fatal(err)
	}
	e2 := event.Acquire()
	if err := DecodeEventInto(e2, pkt2); err != nil {
		t.Fatal(err)
	}
	pkt2.Release()

	if !clone.Equal(src) {
		t.Fatalf("promoted clone corrupted by buffer reuse\n got %s\nwant %s", clone, src)
	}
	e2.Release()
}

// TestDecodeEventIntoInterned: well-known names and values decode to
// the shared interned strings with no borrow at all — the packet is
// free to recycle immediately.
func TestDecodeEventIntoInterned(t *testing.T) {
	event.Intern("interned-borrow-test-name", "interned-borrow-test-value")
	pool := NewPacketPool()
	src := event.New()
	src.Sender = ident.New(9)
	src.Seq = 1
	src.Stamp = time.Unix(1700000003, 0)
	src.Set("interned-borrow-test-name", event.Str("interned-borrow-test-value"))
	src.SetInt(event.AttrMember, 12)

	pkt, err := pool.Unmarshal(marshalEventPacket(t, src))
	if err != nil {
		t.Fatal(err)
	}
	e := event.Acquire()
	if err := DecodeEventInto(e, pkt); err != nil {
		t.Fatal(err)
	}
	if e.Borrowed() {
		t.Fatal("all-interned decode should not borrow")
	}
	if !e.Equal(src) {
		t.Fatalf("interned decode mismatch\n got %s\nwant %s", e, src)
	}
	pkt.Release()
	if acq, rec := pool.Stats(); acq != rec {
		t.Fatalf("interned decode pinned the packet: acquired=%d recycled=%d", acq, rec)
	}
	e.Release()
}

// TestDecodeEventIntoTargetNotEmpty: reusing a non-empty event is an
// error, not silent corruption.
func TestDecodeEventIntoTargetNotEmpty(t *testing.T) {
	pool := NewPacketPool()
	raw := marshalEventPacket(t, borrowTestEvent())
	pkt, err := pool.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer pkt.Release()
	e := event.New().SetInt("already", 1)
	if err := DecodeEventInto(e, pkt); !errors.Is(err, errDecodeTarget) {
		t.Fatalf("got %v, want ErrDecodeTarget", err)
	}
}

// TestDecodeEventIntoBadPayloadClears: a decode error must not leave
// half-built borrowed attributes in the target event.
func TestDecodeEventIntoBadPayloadClears(t *testing.T) {
	pool := NewPacketPool()
	payload := EncodeEvent(borrowTestEvent())
	payload = payload[:len(payload)-2] // truncate mid-value
	pkt := &Packet{Type: PktEvent, Sender: ident.New(1), Seq: 1, Payload: payload}
	raw, err := pkt.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	e := event.Acquire()
	if err := DecodeEventInto(e, p); err == nil {
		t.Fatal("truncated payload decoded successfully")
	}
	if e.Len() != 0 || e.Borrowed() {
		t.Fatalf("failed decode left state behind: len=%d borrowed=%v", e.Len(), e.Borrowed())
	}
	p.Release()
	e.Release()
	if acq, rec := pool.Stats(); acq != rec {
		t.Fatalf("failed decode leaked the packet: acquired=%d recycled=%d", acq, rec)
	}
}

// TestDecodeEventTruncatedCountFailsFast pins the O(1) rejection of
// hostile attribute counts: a payload claiming MaxAttrs attributes
// with no attribute bytes must fail before the decode loop, without
// allocating per claimed attribute.
func TestDecodeEventTruncatedCountFailsFast(t *testing.T) {
	// 8+8+8 header bytes then count=MaxAttrs and nothing else.
	payload := make([]byte, 26)
	payload[24], payload[25] = 0, event.MaxAttrs
	if _, err := DecodeEvent(payload); !errors.Is(err, errTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, _ = DecodeEvent(payload)
	})
	// One event struct plus the error values — far below the one-or-
	// more allocations per claimed attribute the pre-check prevents.
	if allocs > 8 {
		t.Fatalf("truncated decode allocated %.0f times; want O(1)", allocs)
	}
}
