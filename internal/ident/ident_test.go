package ident

import (
	"math/rand"
	"net"
	"testing"
	"testing/quick"
)

func TestNewMasksTo48Bits(t *testing.T) {
	id := New(0xFFFF_FFFF_FFFF_FFFF)
	if !id.valid() {
		t.Fatalf("New produced invalid ID %x", uint64(id))
	}
	if id != Broadcast {
		t.Fatalf("all-ones masked = %x, want broadcast", uint64(id))
	}
}

func TestFromAddrRoundTrip(t *testing.T) {
	cases := []struct {
		ip   net.IP
		port int
	}{
		{net.IPv4(127, 0, 0, 1), 8080},
		{net.IPv4(10, 1, 2, 3), 1},
		{net.IPv4(192, 168, 255, 254), 65535},
		{net.IPv4(0, 0, 0, 1), 0},
	}
	for _, c := range cases {
		id, err := fromAddr(c.ip, c.port)
		if err != nil {
			t.Fatalf("FromAddr(%v, %d): %v", c.ip, c.port, err)
		}
		ip, port := id.Addr()
		if !ip.Equal(c.ip) || port != c.port {
			t.Errorf("roundtrip(%v:%d) = %v:%d", c.ip, c.port, ip, port)
		}
	}
}

func TestFromAddrRejectsIPv6AndBadPorts(t *testing.T) {
	if _, err := fromAddr(net.ParseIP("2001:db8::1"), 80); err == nil {
		t.Error("IPv6 accepted")
	}
	if _, err := fromAddr(net.IPv4(1, 2, 3, 4), -1); err == nil {
		t.Error("negative port accepted")
	}
	if _, err := fromAddr(net.IPv4(1, 2, 3, 4), 70000); err == nil {
		t.Error("oversized port accepted")
	}
}

func TestFromUDPAddrNil(t *testing.T) {
	if _, err := FromUDPAddr(nil); err == nil {
		t.Error("nil UDP address accepted")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	err := quick.Check(func(raw uint64) bool {
		id := New(raw)
		parsed, err := Parse(id.String())
		return err == nil && parsed == id
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestParseDecimalAndHex(t *testing.T) {
	id, err := Parse("123")
	if err != nil || id != New(123) {
		t.Errorf("Parse(123) = %v, %v", id, err)
	}
	id, err = Parse("0x7b")
	if err != nil || id != New(0x7b) {
		t.Errorf("Parse(0x7b) = %v, %v", id, err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "xx", "1:2:3", "1:2:3:4:5:zz", "0x1ffffffffffff0"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestRandomAvoidsReserved(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		id := random(rng)
		if id.IsNil() || id.IsBroadcast() {
			t.Fatalf("Random produced reserved ID %s", id)
		}
	}
}

func TestStringFormat(t *testing.T) {
	id := New(0x0102030405A6)
	if got := id.String(); got != "01:02:03:04:05:a6" {
		t.Errorf("String = %q", got)
	}
}

func TestReservedPredicates(t *testing.T) {
	if !Nil.IsNil() || Nil.IsBroadcast() {
		t.Error("Nil predicates wrong")
	}
	if !Broadcast.IsBroadcast() || Broadcast.IsNil() {
		t.Error("Broadcast predicates wrong")
	}
}

// random draws a non-nil, non-broadcast ID from rng.
func random(rng *rand.Rand) ID {
	for {
		id := New(rng.Uint64())
		if id != Nil && id != Broadcast {
			return id
		}
	}
}

// valid reports whether the ID fits in 48 bits.
func (id ID) valid() bool { return id&^mask == 0 }
