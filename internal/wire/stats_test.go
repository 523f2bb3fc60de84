package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// sampleCellStats sets every field of every struct to a distinct
// non-zero value (and leaves one row of each table mostly zero).
func sampleCellStats() CellStats {
	return CellStats{
		Cell:           "ward-3",
		Members:        17,
		Published:      101,
		DeliveredLocal: 42,
		EnqueuedRemote: 59,
		Dropped:        3,
		Quenches:       2,
		AuthDenied:     1,
		BusChannel: ChannelCounters{
			Sent: 1000, Acked: 998, Retransmits: 12, FastRetransmits: 2,
			Failures: 2, Resumed: 1, StreamResets: 1, Received: 2000,
			DupsDropped: 5, Buffered: 7, StaleAcks: 3, StaleEpoch: 1,
			UnreliableIn: 40, UnreliableOut: 41,
			PacketsAcquired: 2050, PacketsRecycled: 2049,
		},
		DiscChannel: ChannelCounters{
			Sent: 10, Acked: 10, Received: 30,
			PacketsAcquired: 30, PacketsRecycled: 30,
		},
		Log: LogCounters{
			Enabled: true, Epoch: 0xfeedface, OldestCursor: 100,
			NewestCursor: 900, Events: 801, Bytes: 65536, Segments: 4,
			Appended: 905, Evicted: 104, DupsDropped: 5,
			SegmentsAcquired: 9, SegmentsRecycled: 5,
		},
		Durables: []DurableCounters{
			{Name: "ward-nurse", Attached: true, Delivered: 890, Lag: 10},
			{Name: "archive", Attached: false, Delivered: 450, Lag: 450},
		},
		Federation: []FederationCounters{
			{
				Name: "ward-gateway", RemoteCell: "icu", Connected: true,
				Imported: 120, Skipped: 4, Dropped: 1, Reconnects: 3,
				ResumeEpoch: 0xdeadbeef, ResumeCursor: 118,
			},
			{Name: "cold-link", RemoteCell: "lab"},
		},
	}
}

func TestCellStatsRoundTrip(t *testing.T) {
	in := sampleCellStats()
	buf := AppendCellStats(nil, in)
	out, err := DecodeCellStats(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if got := out.BusChannel.Leaked(); got != 1 {
		t.Fatalf("bus leak = %d, want 1", got)
	}
	if got := out.DiscChannel.Leaked(); got != 0 {
		t.Fatalf("disc leak = %d, want 0", got)
	}
}

func TestCellStatsDecodeRejectsTruncationAndTrailer(t *testing.T) {
	buf := AppendCellStats(nil, CellStats{Cell: "c", Members: 1})
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
	if PktStatsRequest.String() != "stats-request" || PktStatsResponse.String() != "stats-response" {
		t.Fatalf("packet type names: %s / %s", PktStatsRequest, PktStatsResponse)
	}
}

// TestCellStatsGoldenBytes pins the management-plane encoding: both hex
// strings were produced by the hand-written per-field encoder this
// file's field lists replaced (commit e8873c7).
func TestCellStatsGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   CellStats
		want string
	}{
		{"full", sampleCellStats(), "06776172642d3311652a3b030201e807e6070c02020101d00f050703012829821081100a0a00000000001e0000000000001e1e01cef5b7f70f648407a10680800404890768050905020a776172642d6e7572736501fa060a076172636869766500c203c203020c776172642d67617465776179036963750178040103effdb6f50d7609636f6c642d6c696e6b036c616200000000000000"},
		{"zero", CellStats{}, "000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
	} {
		if got := hex.EncodeToString(AppendCellStats(nil, tc.in)); got != tc.want {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func TestCellStatsDecodeRejectsNonCanonical(t *testing.T) {
	zero := AppendCellStats(nil, CellStats{})
	// The cell name's zero length spelled in two bytes.
	padded := append([]byte{0x80, 0x00}, zero[1:]...)
	// Log.Enabled: twelve log fields and two row counts from the end.
	flag := bytes.Clone(zero)
	flag[len(zero)-14] = 2
	// 2^33-1 where a uint32 goes.
	members := append([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x1f}, zero[2:]...)
	for name, buf := range map[string][]byte{"padded varint": padded, "flag 2": flag, "members overflow": members} {
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
	// Row counts far beyond the remaining bytes.
	huge := AppendCellStats(nil, CellStats{})
	f.Add(append(huge[:len(huge)-2], 0xff, 0xff, 0xff, 0x7f, 0))
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
