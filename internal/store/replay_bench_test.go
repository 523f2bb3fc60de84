//go:build !race

// The replay benchmark and the allocation pin that reads it: neither
// means anything under the race detector, whose instrumentation
// allocates.

package store

import (
	"testing"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/wire"
)

// BenchmarkLogReplay measures the replay read path a durable walker
// drives: cursor-ordered Next over a retained log, borrowing decode
// against the segment buffer (the event aliases the log's bytes — no
// payload copy), release, repeat. events/sec is the replay throughput
// one walker can feed a rejoining consumer.
func BenchmarkLogReplay(b *testing.B) {
	step := newReplayWalker(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// TestLogReplayZeroAlloc pins the walker's read path at no allocation:
// the record, the borrowed decode and the pooled event all recycle.
func TestLogReplayZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin")
	}
	step := newReplayWalker(t)
	step() // warm the event pool outside the measurement
	if allocs := testing.AllocsPerRun(20000, step); allocs != 0 {
		t.Fatalf("replay allocates %.2f objects/event, want 0", allocs)
	}
}

// newReplayWalker fills a log with 8 192 events and returns one step
// of a walker over it: read the next record, decode it borrowing the
// segment's bytes, release; past the tail it wraps to the oldest.
func newReplayWalker(tb testing.TB) (step func()) {
	l, err := Open(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	const retained = 8192
	sender := ident.New(0xBEEF)
	for i := 0; i < retained; i++ {
		e := event.Acquire().SetStr(event.AttrType, "replay").SetInt("k", int64(i))
		e.Sender = sender
		l.Append(e, 0, false)
		e.Release()
	}

	cursor := uint64(0)
	return func() {
		rec, ok := l.Next(cursor + 1)
		if !ok {
			cursor = 0 // wrap: replay the retained window again
			rec, ok = l.Next(1)
			if !ok {
				tb.Fatal("log empty")
			}
		}
		e := event.Acquire()
		bound, err := wire.DecodeEventBacked(e, rec.Payload, rec.Seg())
		if err != nil {
			tb.Fatal(err)
		}
		if !bound {
			rec.Release()
		}
		cursor = rec.Cursor
		e.Release()
	}
}
