package wire

import (
	"math/rand"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

func sampleEvent() *event.Event {
	e := event.NewTyped("reading").
		SetInt("i", -42).
		SetFloat("f", 3.1415).
		SetStr("s", "text value").
		Set("b", event.Bool(true)).
		SetBytes("raw", []byte{0, 1, 2, 254, 255})
	e.Sender = ident.New(0xABCDEF)
	e.Seq = 77
	e.Stamp = time.Unix(1718000000, 123456789)
	return e
}

func TestEventRoundTrip(t *testing.T) {
	e := sampleEvent()
	buf := EncodeEvent(e)
	got, err := DecodeEvent(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.Equal(e) {
		t.Errorf("roundtrip mismatch:\n got %s\nwant %s", got, e)
	}
	if !got.Stamp.Equal(e.Stamp) {
		t.Errorf("stamp = %v, want %v", got.Stamp, e.Stamp)
	}
	if got.Sender != e.Sender || got.Seq != e.Seq {
		t.Errorf("origin = %s/%d, want %s/%d", got.Sender, got.Seq, e.Sender, e.Seq)
	}
}

func TestEmptyEventRoundTrip(t *testing.T) {
	e := event.New()
	e.Stamp = time.Unix(0, 0)
	got, err := DecodeEvent(EncodeEvent(e))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if got.Len() != 0 {
		t.Errorf("Len = %d", got.Len())
	}
}

func TestEventDecodeTruncation(t *testing.T) {
	buf := EncodeEvent(sampleEvent())
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeEvent(buf[:i]); err == nil {
			t.Fatalf("truncated event at %d accepted", i)
		}
	}
}

func TestEventDecodeTrailingBytes(t *testing.T) {
	buf := append(EncodeEvent(sampleEvent()), 0x00)
	if _, err := DecodeEvent(buf); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestEventDecodeRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(100))
		rng.Read(buf)
		_, _ = DecodeEvent(buf) // must not panic
	}
}

func sampleFilter() *event.Filter {
	return event.NewFilter().
		WhereType("reading").
		Where("value", event.OpGt, event.Float(99.5)).
		Where("unit", event.OpPrefix, event.Str("b")).
		Where("seq", event.OpExists, event.Value{}).
		Where("ok", event.OpEq, event.Bool(true)).
		Where("raw", event.OpEq, event.Bytes([]byte{9, 8}))
}

func TestFilterRoundTrip(t *testing.T) {
	f := sampleFilter()
	got, err := DecodeFilter(EncodeFilter(f))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.Equal(f) {
		t.Errorf("roundtrip mismatch:\n got %s\nwant %s", got, f)
	}
}

func TestEmptyFilterRoundTrip(t *testing.T) {
	got, err := DecodeFilter(EncodeFilter(event.NewFilter()))
	if err != nil || got.Len() != 0 {
		t.Errorf("empty filter roundtrip: %v %v", got, err)
	}
}

func TestFilterDecodeTruncation(t *testing.T) {
	buf := EncodeFilter(sampleFilter())
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeFilter(buf[:i]); err == nil {
			t.Fatalf("truncated filter at %d accepted", i)
		}
	}
}

func TestFilterDecodeRejectsInvalidOp(t *testing.T) {
	f := event.NewFilter().Where("x", event.OpEq, event.Int(1))
	buf := EncodeFilter(f)
	// The op byte follows the 2-byte count and the name ("x" = uvarint
	// len 1 + 'x'): offset 2+2.
	buf[4] = 200
	if _, err := DecodeFilter(buf); err == nil {
		t.Error("invalid op accepted")
	}
}

func TestValueEncodingAllTypes(t *testing.T) {
	values := []event.Value{
		event.Int(0), event.Int(-1), event.Int(1 << 62),
		event.Float(0), event.Float(-2.75),
		event.Str(""), event.Str("héllo"),
		event.Bool(true), event.Bool(false),
		event.Bytes(nil), event.Bytes([]byte{1}),
	}
	for _, v := range values {
		e := event.New().Set("v", v)
		got, err := DecodeEvent(EncodeEvent(e))
		if err != nil {
			t.Fatalf("decode %s: %v", v, err)
		}
		gv, ok := got.Get("v")
		if !ok || !gv.Equal(v) {
			t.Errorf("value %s roundtripped to %s", v, gv)
		}
	}
}

func TestControlRoundTrips(t *testing.T) {
	b := Beacon{Cell: "ward-3", Epoch: 9}
	gb, err := DecodeBeacon(AppendBeacon(nil, b))
	if err != nil || gb != b {
		t.Errorf("beacon roundtrip: %+v %v", gb, err)
	}

	jr := JoinRequest{DeviceType: "hr-sensor", DeviceName: "hr-1", Auth: []byte{1, 2, 3}}
	gjr, err := DecodeJoinRequest(AppendJoinRequest(nil, jr))
	if err != nil || gjr.DeviceType != jr.DeviceType || gjr.DeviceName != jr.DeviceName ||
		string(gjr.Auth) != string(jr.Auth) {
		t.Errorf("join request roundtrip: %+v %v", gjr, err)
	}

	ja := JoinAccept{Cell: "ward-3", Bus: ident.New(42), LeaseMillis: 2000, GraceMillis: 3000}
	gja, err := DecodeJoinAccept(AppendJoinAccept(nil, ja))
	if err != nil || gja != ja {
		t.Errorf("join accept roundtrip: %+v %v", gja, err)
	}

	rej := JoinReject{Reason: "authentication failed"}
	grej, err := DecodeJoinReject(AppendJoinReject(nil, rej))
	if err != nil || grej != rej {
		t.Errorf("join reject roundtrip: %+v %v", grej, err)
	}
}

func TestControlDecodeTruncation(t *testing.T) {
	bufs := [][]byte{
		AppendBeacon(nil, Beacon{Cell: "c", Epoch: 1}),
		AppendJoinRequest(nil, JoinRequest{DeviceType: "t", DeviceName: "n", Auth: []byte{1}}),
		AppendJoinAccept(nil, JoinAccept{Cell: "c", Bus: 1, LeaseMillis: 1, GraceMillis: 1}),
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := DecodeBeacon(b); return err },
		func(b []byte) error { _, err := DecodeJoinRequest(b); return err },
		func(b []byte) error { _, err := DecodeJoinAccept(b); return err },
	}
	for k, buf := range bufs {
		for i := 0; i < len(buf); i++ {
			if err := decoders[k](buf[:i]); err == nil {
				t.Fatalf("decoder %d accepted truncation at %d", k, i)
			}
		}
	}
}
