package wire

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// FuzzDecodeFilter: filters arrive from any member in PktSubscribe —
// also when the member is bound to a durable consumer and subscribes on
// its behalf. Arbitrary bytes never panic, and a filter the decoder
// accepts re-encodes to bytes that decode to an equal filter.
func FuzzDecodeFilter(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		f.Add(EncodeFilter(randomFilter(rng)))
	}
	full := EncodeFilter(event.NewFilter().WhereType("alarm").Where("v", event.OpGe, event.Int(3)))
	f.Add(full[:len(full)-1])
	f.Add([]byte{})
	// A constraint count far beyond the bytes that follow, and one
	// beyond MaxAttrs.
	f.Add([]byte{0x00, event.MaxAttrs, 0x01, 'x', byte(event.OpExists)})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := DecodeFilter(data)
		if err != nil {
			return
		}
		got, err := DecodeFilter(EncodeFilter(fl))
		if err != nil {
			t.Fatalf("re-encoding of %s does not decode: %v", fl, err)
		}
		if !got.Equal(fl) {
			t.Fatalf("re-decodes differently\n got %s\nwant %s", got, fl)
		}
	})
}

// FuzzControl: the discovery payloads (beacon, join request, accept,
// reject) and the durable-consumer ones (resume, ack) arrive from any
// endpoint. Every decoder is fed the same arbitrary bytes: none panics,
// and whatever one accepts re-encodes to bytes that decode to an equal
// value.
func FuzzControl(f *testing.F) {
	for _, b := range [][]byte{
		AppendBeacon(nil, Beacon{Cell: "ward-3", Epoch: 9}),
		AppendJoinRequest(nil, JoinRequest{DeviceType: "hr-sensor", DeviceName: "hr-1", Auth: []byte{1, 2, 3}}),
		AppendJoinAccept(nil, JoinAccept{Cell: "ward-3", Bus: ident.New(42), LeaseMillis: 2000, GraceMillis: 3000}),
		AppendJoinReject(nil, JoinReject{Reason: "authentication failed"}),
		AppendDurableResume(nil, DurableResume{Name: "roamer", Epoch: 7, Cursor: 1 << 40}),
		AppendDurableAck(nil, DurableAck{Epoch: 7, From: 99}),
	} {
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
	// A length prefix far beyond the bytes that follow.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, err := DecodeBeacon(data); err == nil {
			reDecodes(t, v, AppendBeacon, DecodeBeacon)
		}
		if v, err := DecodeJoinRequest(data); err == nil {
			reDecodes(t, v, AppendJoinRequest, DecodeJoinRequest)
		}
		if v, err := DecodeJoinAccept(data); err == nil {
			reDecodes(t, v, AppendJoinAccept, DecodeJoinAccept)
		}
		if v, err := DecodeJoinReject(data); err == nil {
			reDecodes(t, v, AppendJoinReject, DecodeJoinReject)
		}
		if v, err := DecodeDurableResume(data); err == nil {
			reDecodes(t, v, AppendDurableResume, DecodeDurableResume)
		}
		if v, err := DecodeDurableAck(data); err == nil {
			reDecodes(t, v, AppendDurableAck, DecodeDurableAck)
		}
	})
}

// reDecodes checks that an accepted control value re-encodes to bytes
// that decode to an equal value.
func reDecodes[T any](t *testing.T, v T, enc func([]byte, T) []byte, dec func([]byte) (T, error)) {
	t.Helper()
	got, err := dec(enc(nil, v))
	if err != nil {
		t.Fatalf("%T re-encoding does not decode: %v", v, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("%T re-decodes differently\n got %+v\nwant %+v", v, got, v)
	}
}

// FuzzAckSack: acks arrive from any endpoint. A FlagSack ack survives a
// marshal → unmarshal round trip with its bitmap; arbitrary bytes never
// panic the packet decoder or AckSack; and AckSack reads a bitmap only
// from a FlagSack packet whose payload is exactly 8 bytes.
func FuzzAckSack(f *testing.F) {
	sack, _ := (&Packet{Type: PktAck, Flags: FlagCumAck | FlagSack, Epoch: 3, Sender: ident.New(2),
		Seq: 41, Payload: AppendSack(nil, 0b1011)}).MarshalBytes()
	plain, _ := (&Packet{Type: PktAck, Flags: FlagCumAck, Sender: ident.New(2), Seq: 41}).MarshalBytes()
	for _, b := range [][]byte{sack, plain, sack[:len(sack)-1], {}} {
		f.Add(b, uint64(0b1011), uint64(41))
	}
	f.Fuzz(func(t *testing.T, data []byte, bits, cum uint64) {
		if p, err := unmarshal(data); err == nil {
			got := AckSack(p)
			if p.Flags&FlagSack == 0 || len(p.Payload) != sackLen {
				if got != 0 {
					t.Fatalf("AckSack = %#x from flags %#x and a %d-byte payload, want 0", got, p.Flags, len(p.Payload))
				}
			} else if want := binary.BigEndian.Uint64(p.Payload); got != want {
				t.Fatalf("AckSack = %#x, want %#x", got, want)
			}
		}
		b, err := (&Packet{Type: PktAck, Flags: FlagCumAck | FlagSack, Sender: ident.New(2),
			Seq: cum, Payload: AppendSack(nil, bits)}).MarshalBytes()
		if err != nil {
			t.Fatal(err)
		}
		p, err := unmarshal(b)
		if err != nil {
			t.Fatalf("a FlagSack ack does not decode: %v", err)
		}
		if p.Type != PktAck || p.Flags != FlagCumAck|FlagSack || p.Seq != cum || AckSack(p) != bits {
			t.Fatalf("round trip gave %s with bitmap %#x, want seq %d bitmap %#x", p, AckSack(p), cum, bits)
		}
	})
}
