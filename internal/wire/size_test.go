package wire

import (
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// TestEventSizeMatchesEncoding checks EventSize against the ground
// truth — the length of the actual encoding — across value types and
// length-prefix widths.
func TestEventSizeMatchesEncoding(t *testing.T) {
	events := []*event.Event{
		event.New(),
		event.NewTyped("alarm"),
		event.NewTyped("reading").
			SetInt("n", -42).
			SetFloat("v", 36.6).
			Set("ok", event.Bool(true)).
			SetStr("unit", "bpm").
			SetBytes("raw", []byte{1, 2, 3}),
		event.NewTyped("big").
			SetBytes("payload", make([]byte, 200)).   // 2-byte uvarint prefix
			SetStr("s", string(make([]byte, 16384))), // 3-byte uvarint prefix
	}
	for i, e := range events {
		e.Sender = ident.New(uint64(i + 1))
		e.Seq = uint64(i)
		e.Stamp = time.Unix(0, 12345)
		if got, want := EventSize(e), len(EncodeEvent(e)); got != want {
			t.Errorf("event %d: EventSize = %d, encoded length = %d", i, got, want)
		}
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 40, 1<<64 - 1} {
		got := uvarintLen(v)
		want := len(appendUvarint(nil, v))
		if got != want {
			t.Errorf("uvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
}
