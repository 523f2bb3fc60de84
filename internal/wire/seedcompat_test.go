package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// Wire-compatibility pin for the inline attribute refactor: the seed
// stored attributes in a map and sorted the names on every encode; the
// inline representation stores them sorted and encodes with a straight
// index loop. The bytes on the wire must be identical — peers running
// either build must interoperate — so seedEncodeEvent reproduces the
// seed encoder (map + sort + the shared primitives) and every test
// below compares against it byte for byte.

// seedEncodeEvent encodes an event exactly as the map-based seed did:
// collect attributes into a map, sort the names, then emit
// sender/seq/stamp/count and the sorted name/value pairs.
func seedEncodeEvent(e *event.Event) []byte {
	attrs := make(map[string]event.Value, e.Len())
	e.Range(func(name string, v event.Value) bool {
		attrs[name] = v
		return true
	})
	names := make([]string, 0, len(attrs))
	for n := range attrs {
		names = append(names, n)
	}
	sort.Strings(names)

	dst := make([]byte, 0, 64+len(attrs)*24)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(e.Sender))
	dst = append(dst, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], e.Seq)
	dst = append(dst, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(e.Stamp.UnixNano()))
	dst = append(dst, tmp[:]...)
	binary.BigEndian.PutUint16(tmp[:2], uint16(len(attrs)))
	dst = append(dst, tmp[:2]...)
	for _, name := range names {
		dst = appendString(dst, name)
		dst = appendValue(dst, attrs[name])
	}
	return dst
}

// TestEncodeMatchesSeedEncoding: the inline encoder's output is
// byte-identical to the seed's map-and-sort encoder on random events,
// and decode round-trips it.
func TestEncodeMatchesSeedEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for i := 0; i < 2000; i++ {
		e := randomEvent(rng)
		got := EncodeEvent(e)
		want := seedEncodeEvent(e)
		if !bytes.Equal(got, want) {
			t.Fatalf("iteration %d: encoding diverged from seed\n got %x\nwant %x\nevent %s",
				i, got, want, e)
		}
		dec, err := DecodeEvent(got)
		if err != nil {
			t.Fatalf("iteration %d: decode: %v", i, err)
		}
		if !dec.Equal(e) {
			t.Fatalf("iteration %d: roundtrip mismatch", i)
		}
	}
}

// TestEncodeSeedEncodingEdges pins the boundary shapes by hand: empty,
// exactly InlineAttrs (largest inline), InlineAttrs+1 (first spill) and
// exactly MaxAttrs.
func TestEncodeSeedEncodingEdges(t *testing.T) {
	for _, n := range []int{0, event.InlineAttrs, event.InlineAttrs + 1, event.MaxAttrs} {
		t.Run(fmt.Sprintf("attrs=%d", n), func(t *testing.T) {
			e := event.New()
			e.Sender = ident.New(0xABCD)
			e.Seq = 7
			e.Stamp = time.Unix(1700000000, 123)
			for i := n - 1; i >= 0; i-- { // reverse insert: worst case for the inline shift
				e.SetInt(fmt.Sprintf("attr%03d", i), int64(i))
			}
			if err := e.Validate(); err != nil {
				t.Fatal(err)
			}
			got, want := EncodeEvent(e), seedEncodeEvent(e)
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding diverged from seed at %d attrs", n)
			}
			dec, err := DecodeEvent(got)
			if err != nil {
				t.Fatal(err)
			}
			if !dec.Equal(e) || dec.Len() != n {
				t.Fatalf("roundtrip mismatch at %d attrs", n)
			}
		})
	}
}

// FuzzEventRoundTrip is the CI fuzz target (run for 30s in the matrix
// job): fuzzed payload bytes must either fail to decode or decode into
// an event that re-encodes byte-identically under both the inline and
// the seed encoder. This catches any decode path that would accept an
// event the deterministic encoding cannot reproduce.
func FuzzEventRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 16; i++ {
		f.Add(EncodeEvent(randomEvent(rng)))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// Regression seed for the O(1) truncated-count rejection: a full
	// 26-byte metadata header claiming MaxAttrs attributes followed by
	// no attribute bytes at all (see TestDecodeEventTruncatedCountFailsFast).
	hostile := make([]byte, 26)
	hostile[25] = event.MaxAttrs
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEvent(data)
		if err != nil {
			return // invalid payloads are rejected, never crash
		}
		if e.Len() > event.MaxAttrs {
			t.Fatalf("decode admitted %d attributes", e.Len())
		}
		re := EncodeEvent(e)
		seed := seedEncodeEvent(e)
		if !bytes.Equal(re, seed) {
			t.Fatalf("re-encode diverges from seed encoder\ninline %x\nseed   %x", re, seed)
		}
		// A decoded event always re-decodes to an equal event (the
		// encoding is canonical even when the input bytes were not,
		// e.g. unsorted or duplicated names from a foreign encoder).
		e2, err := DecodeEvent(re)
		if err != nil {
			t.Fatalf("canonical re-encode does not decode: %v", err)
		}
		if !e2.Equal(e) {
			t.Fatal("canonical re-encode decodes differently")
		}
	})
}
