package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// sampleCellStats has rows, a bool, a zero and a value that needs a
// multi-byte varint, added out of name order.
func sampleCellStats() CellStats {
	s := CellStats{Cell: "ward-3"}
	s.Add("reliable.bus", struct {
		Sent            uint64
		PacketsAcquired uint64
	}{1000, 2050})
	s.Add("durable.ward-nurse", struct {
		Name      string
		Attached  bool
		Delivered uint64
		Lag       uint64
	}{"ward-nurse", true, 890, 0})
	s.Add("bus", &struct {
		Published    uint64
		DurableParks uint64
		hidden       uint64
		Shards       int
	}{Published: 101, DurableParks: 2, hidden: 7, Shards: 4})
	return s
}

func TestCellStatsAddDerivesNames(t *testing.T) {
	want := []Stat{
		{"reliable.bus.sent", 1000}, {"reliable.bus.packets_acquired", 2050},
		{"durable.ward-nurse.attached", 1}, {"durable.ward-nurse.delivered", 890}, {"durable.ward-nurse.lag", 0},
		{"bus.published", 101}, {"bus.durable_parks", 2},
	}
	if got := sampleCellStats().Stats; !reflect.DeepEqual(got, want) {
		t.Fatalf("Add:\n got %v\nwant %v", got, want)
	}
	for in, want := range map[string]string{"NoMatch": "no_match", "URLPath": "url_path", "Sent": "sent", "DupsDropped": "dups_dropped"} {
		if got := snake(in); got != want {
			t.Errorf("snake(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCellStatsRoundTrip(t *testing.T) {
	in := sampleCellStats()
	out, err := DecodeCellStats(AppendCellStats(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cell != in.Cell || len(out.Stats) != len(in.Stats) {
		t.Fatalf("round trip: %+v", out)
	}
	for _, s := range in.Stats {
		if v, ok := out.Get(s.Name); !ok || v != s.Value {
			t.Errorf("%s = %d, %v; want %d", s.Name, v, ok, s.Value)
		}
	}
	if _, ok := out.Get("bus.hidden"); ok {
		t.Error("unexported field encoded")
	}
	// A repeated name keeps its first value.
	in.Stats = append(in.Stats, Stat{"bus.published", 9})
	if out, err := DecodeCellStats(AppendCellStats(nil, in)); err != nil || len(out.Stats) != 7 {
		t.Fatalf("duplicate name: %v, %+v", err, out)
	} else if v, _ := out.Get("bus.published"); v != 101 {
		t.Fatalf("duplicate name kept %d, want the first value 101", v)
	}
}

func TestCellStatsDecodeRejectsTruncationAndTrailer(t *testing.T) {
	buf := AppendCellStats(nil, sampleCellStats())
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeCellStats(buf[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, err := DecodeCellStats(append(buf, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestStatsPacketTypesNamed(t *testing.T) {
	if PktStatsRequest.String() != "stats-request" || pktStatsResponse.String() != "stats-response" ||
		PktStatsSnapshot.String() != "stats-snapshot" {
		t.Fatalf("packet type names: %s / %s / %s", PktStatsRequest, pktStatsResponse, PktStatsSnapshot)
	}
	// The snapshot took a new number; the fixed-layout response's
	// stays reserved.
	if pktStatsResponse != 15 || PktStatsSnapshot != 19 {
		t.Fatalf("packet numbers: response %d, snapshot %d", pktStatsResponse, PktStatsSnapshot)
	}
}

// TestCellStatsGoldenBytes pins the snapshot encoding: the cell name,
// the pair count, then (name, uvarint value) pairs in name order.
func TestCellStatsGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   CellStats
		want string
	}{
		{"full", sampleCellStats(), "06776172642d3307" +
			"116275732e64757261626c655f7061726b7302" + // bus.durable_parks=2
			"0d6275732e7075626c697368656465" + // bus.published=101
			"1b64757261626c652e776172642d6e757273652e617474616368656401" + // durable.ward-nurse.attached=1
			"1c64757261626c652e776172642d6e757273652e64656c697665726564fa06" + // …delivered=890
			"1664757261626c652e776172642d6e757273652e6c616700" + // …lag=0
			"1d72656c6961626c652e6275732e7061636b6574735f61637175697265648210" + // reliable.bus.packets_acquired=2050
			"1172656c6961626c652e6275732e73656e74e807"}, // reliable.bus.sent=1000
		{"zero", CellStats{}, "0000"},
	} {
		if got := hex.EncodeToString(AppendCellStats(nil, tc.in)); got != tc.want {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func TestCellStatsDecodeRejectsNonCanonical(t *testing.T) {
	pair := func(name string, v byte) []byte { return append(appendString(nil, name), v) }
	body := func(pairs ...[]byte) []byte {
		buf := []byte{1, 'c', byte(len(pairs))}
		for _, p := range pairs {
			buf = append(buf, p...)
		}
		return buf
	}
	if _, err := DecodeCellStats(body(pair("a", 1), pair("b", 2))); err != nil {
		t.Fatalf("canonical payload rejected: %v", err)
	}
	for name, buf := range map[string][]byte{
		"descending names": body(pair("b", 2), pair("a", 1)),
		"repeated name":    body(pair("a", 1), pair("a", 2)),
		// The value 1 spelled in two bytes.
		"padded value": append(body(pair("a", 1))[:5], 0x81, 0x00),
		// The cell name's length 1 spelled in two bytes.
		"padded length": append([]byte{0x81, 0x00}, body(pair("a", 1))[1:]...),
		// A count far beyond the bytes that follow.
		"huge count":     {0, 0xff, 0xff, 0xff, 0x7f, 1, 'a', 0},
		"truncated pair": body(pair("a", 1), pair("b", 2))[:7],
		// One pair counted, two present: a trailer.
		"short count": append(body(pair("a", 1)), pair("b", 2)...),
	} {
		if _, err := DecodeCellStats(buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzCellStats: arbitrary bytes never panic, and whatever the decoder
// accepts re-encodes to exactly the bytes it was given.
func FuzzCellStats(f *testing.F) {
	full := AppendCellStats(nil, sampleCellStats())
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(AppendCellStats(nil, CellStats{}))
	f.Add([]byte{})
	// A pair count far beyond the remaining bytes.
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0x7f, 1, 'a', 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeCellStats(data)
		if err != nil {
			return
		}
		if re := AppendCellStats(nil, s); !bytes.Equal(re, data) {
			t.Fatalf("accepted input does not re-encode identically\n in %x\nout %x", data, re)
		}
	})
}
