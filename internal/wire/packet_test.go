package wire

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/amuse/smc/internal/ident"
)

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Type:    PktEvent,
		Flags:   FlagRetransmit,
		Epoch:   42,
		Sender:  ident.New(0x123456789ABC),
		Seq:     987654321,
		Payload: []byte("hello world"),
	}
	buf, err := p.MarshalBytes()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if len(buf) != p.encodedLen() {
		t.Errorf("len = %d, want %d", len(buf), p.encodedLen())
	}
	got, err := unmarshal(buf)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Type != p.Type || got.Flags != p.Flags || got.Epoch != p.Epoch ||
		got.Sender != p.Sender || got.Seq != p.Seq ||
		string(got.Payload) != string(p.Payload) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", got, p)
	}
}

func TestPatchHeader(t *testing.T) {
	p := &Packet{
		Type:    PktEvent,
		Sender:  ident.New(7),
		Seq:     3,
		Payload: []byte("steady payload"),
	}
	buf, err := p.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := PatchHeader(buf, FlagRetransmit, 9, 41); err != nil {
		t.Fatalf("patch: %v", err)
	}
	got, err := unmarshal(buf)
	if err != nil {
		t.Fatalf("unmarshal after patch: %v", err)
	}
	if got.Flags != FlagRetransmit || got.Epoch != 9 || got.Seq != 41 {
		t.Errorf("patched packet = %s", got)
	}
	if string(got.Payload) != "steady payload" || got.Sender != p.Sender || got.Type != p.Type {
		t.Errorf("patch disturbed unrelated fields: %s", got)
	}
	if err := PatchHeader(buf[:HeaderLen], 0, 0, 0); !errors.Is(err, errShortPacket) {
		t.Errorf("short buf err = %v", err)
	}
}

func TestEpochZeroMatchesLegacyLayout(t *testing.T) {
	// Epoch 0 must produce the pre-epoch byte layout (reserved byte 0)
	// so mixed-version deployments interoperate.
	p := &Packet{Type: PktEvent, Sender: ident.New(1), Seq: 1}
	buf, err := p.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if buf[5] != 0 {
		t.Errorf("epoch byte = %d, want 0", buf[5])
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	err := quick.Check(func(typ byte, flags byte, sender uint64, seq uint64, payload []byte) bool {
		p := &Packet{
			Type:    PacketType(typ),
			Flags:   flags,
			Sender:  ident.New(sender),
			Seq:     seq,
			Payload: payload,
		}
		buf, err := p.MarshalBytes()
		if err != nil {
			return len(payload) > maxPayload
		}
		got, err := unmarshal(buf)
		if err != nil {
			return false
		}
		if got.Type != p.Type || got.Flags != flags || got.Sender != p.Sender || got.Seq != seq {
			return false
		}
		if len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	p := &Packet{Type: PktEvent, Sender: 1, Seq: 2, Payload: []byte("payload")}
	buf, err := p.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}

	// Flip every single byte and require rejection or, at minimum,
	// detection via checksum (flips in the payload must always be
	// caught by CRC).
	for i := 0; i < len(buf); i++ {
		corrupt := make([]byte, len(buf))
		copy(corrupt, buf)
		corrupt[i] ^= 0xFF
		if _, err := unmarshal(corrupt); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

func TestUnmarshalTruncation(t *testing.T) {
	p := &Packet{Type: PktAck, Sender: 1, Seq: 2, Payload: []byte("abcdef")}
	buf, err := p.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(buf); i++ {
		if _, err := unmarshal(buf[:i]); err == nil {
			t.Fatalf("truncated packet of %d bytes accepted", i)
		}
	}
}

func TestUnmarshalBadMagicAndVersion(t *testing.T) {
	p := &Packet{Type: PktAck, Sender: 1, Seq: 2}
	buf, _ := p.MarshalBytes()
	bad := make([]byte, len(buf))
	copy(bad, buf)
	bad[0] = 'X'
	if _, err := unmarshal(bad); !errors.Is(err, errBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	copy(bad, buf)
	bad[2] = 99
	if _, err := unmarshal(bad); !errors.Is(err, errBadVersion) {
		t.Errorf("bad version: %v", err)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	p := &Packet{Type: PktEvent, Payload: make([]byte, maxPayload+1)}
	if _, err := p.MarshalBytes(); !errors.Is(err, errPayloadTooLarge) {
		t.Errorf("oversized marshal: %v", err)
	}
}

func TestMarshalAppendsToDst(t *testing.T) {
	p := &Packet{Type: PktAck, Sender: 5, Seq: 6}
	prefix := []byte{0xAA, 0xBB}
	out, err := p.Marshal(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAA || out[1] != 0xBB {
		t.Error("prefix clobbered")
	}
	if _, err := unmarshal(out[2:]); err != nil {
		t.Errorf("appended packet corrupt: %v", err)
	}
}

func TestPacketTypeStrings(t *testing.T) {
	types := []PacketType{
		PktEvent, PktAck, PktSubscribe, PktUnsubscribe, PktBeacon,
		PktJoinRequest, PktJoinReject, PktJoinAccept, PktLeave,
		PktHeartbeat, PktQuench, PktUnquench, PktData,
	}
	seen := map[string]bool{}
	for _, pt := range types {
		s := pt.String()
		if s == "invalid" || seen[s] {
			t.Errorf("type %d renders %q", pt, s)
		}
		seen[s] = true
	}
	if PacketType(200).String() != "invalid" {
		t.Error("unknown type not invalid")
	}
}

func TestUnmarshalRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(128)
		buf := make([]byte, n)
		rng.Read(buf)
		// Must never panic; almost always errors.
		_, _ = unmarshal(buf)
	}
}

// unmarshal decodes a packet from buf. The payload aliases buf.
func unmarshal(buf []byte) (*Packet, error) {
	p := &Packet{}
	if err := unmarshalInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}
