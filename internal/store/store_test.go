package store

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/wire"
)

// mkEvent builds a small test event with a recognisable payload.
func mkEvent(seq uint64, label string) *event.Event {
	e := event.New()
	e.Sender = ident.New(0xABC)
	e.Seq = seq
	e.Stamp = time.Unix(1700000000, 0)
	e.Set(event.AttrType, event.Str("reading"))
	e.Set("label", event.Str(label))
	e.SetInt("n", int64(seq))
	return e
}

// drainAll reads every retained record from cursor 1, decoding and
// releasing each, and returns the cursors seen.
func drainAll(t *testing.T, l *Log) []uint64 {
	t.Helper()
	var got []uint64
	from := uint64(0)
	for {
		rec, ok := l.Next(from + 1)
		if !ok {
			return got
		}
		e := event.New()
		if err := wire.DecodeEventInto(e, &wire.Packet{Payload: rec.Payload}); err != nil {
			t.Fatalf("decode cursor %d: %v", rec.Cursor, err)
		}
		got = append(got, rec.Cursor)
		from = rec.Cursor
		rec.Release()
	}
}

func TestAppendNextRoundTrip(t *testing.T) {
	l, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 100
	for i := uint64(1); i <= n; i++ {
		cur, dup := l.Append(mkEvent(i, "x"), 0, false)
		if dup || cur != i {
			t.Fatalf("append %d: cursor=%d dup=%v", i, cur, dup)
		}
	}
	if oc, nc := l.Stats().OldestCursor, l.Stats().NewestCursor; oc != 1 || nc != n {
		t.Fatalf("cursor range [%d,%d], want [1,%d]", oc, nc, n)
	}
	got := drainAll(t, l)
	if len(got) != n {
		t.Fatalf("drained %d records, want %d", len(got), n)
	}
	for i, c := range got {
		if c != uint64(i+1) {
			t.Fatalf("cursor[%d] = %d, want %d", i, c, i+1)
		}
	}
	// Payload must be byte-identical to the standalone encoding.
	rec, ok := l.Next(7)
	if !ok {
		t.Fatal("Next(7) missing")
	}
	defer rec.Release()
	want := wire.AppendEvent(nil, mkEvent(7, "x"))
	if string(rec.Payload) != string(want) {
		t.Fatal("log payload diverges from frozen single-event encoding")
	}
}

func TestNextSkipsForwardAfterEviction(t *testing.T) {
	l, err := Open(Config{SegmentBytes: 256, MaxEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 64; i++ {
		l.Append(mkEvent(i, "evict"), 0, false)
	}
	oldest := l.Stats().OldestCursor
	if oldest <= 1 {
		t.Fatalf("nothing evicted (oldest=%d)", oldest)
	}
	// A from below the retained range lands on the oldest record.
	rec, ok := l.Next(1)
	if !ok {
		t.Fatal("Next(1) after eviction: no record")
	}
	if rec.Cursor != oldest {
		t.Fatalf("Next(1) = cursor %d, want oldest %d", rec.Cursor, oldest)
	}
	rec.Release()
}

func TestRetentionMaxEventsBoundary(t *testing.T) {
	// Tiny segments: each holds only a couple of records, so eviction
	// granularity is observable.
	l, err := Open(Config{SegmentBytes: 128, MaxEvents: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 100; i++ {
		l.Append(mkEvent(i, "r"), 0, false)
		st := l.Stats()
		// Segment-granularity retention: events may exceed MaxEvents by
		// at most one segment's worth (the active segment is never
		// evicted, and a sealed segment only goes when the knob is
		// exceeded).
		if st.Events > 10+4 {
			t.Fatalf("retention failed to keep up: %d events retained", st.Events)
		}
		if st.Appended != i {
			t.Fatalf("appended=%d, want %d", st.Appended, i)
		}
		if st.Events+st.Evicted != st.Appended {
			t.Fatalf("events(%d)+evicted(%d) != appended(%d)", st.Events, st.Evicted, st.Appended)
		}
	}
	// The retained suffix is contiguous up to the newest cursor.
	got := drainAll(t, l)
	if len(got) == 0 {
		t.Fatal("nothing retained")
	}
	if got[len(got)-1] != 100 {
		t.Fatalf("newest drained %d, want 100", got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("gap in retained range: %d -> %d", got[i-1], got[i])
		}
	}
}

func TestRetentionMaxBytes(t *testing.T) {
	l, err := Open(Config{SegmentBytes: 256, MaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 200; i++ {
		l.Append(mkEvent(i, "bytes"), 0, false)
		if st := l.Stats(); st.Bytes > 1024+256 {
			t.Fatalf("retained bytes %d exceed MaxBytes+segment", st.Bytes)
		}
	}
	if st := l.Stats(); st.Evicted == 0 {
		t.Fatal("MaxBytes never evicted")
	}
}

func TestRetentionMaxAge(t *testing.T) {
	l, err := Open(Config{SegmentBytes: 256, MaxAge: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 10; i++ {
		l.Append(mkEvent(i, "old"), 0, false)
	}
	time.Sleep(30 * time.Millisecond)
	// Age is enforced on append: this append seals nothing by itself
	// but triggers retention over the aged sealed segments.
	for i := uint64(11); i <= 20; i++ {
		l.Append(mkEvent(i, "new"), 0, false)
	}
	st := l.Stats()
	if st.Evicted == 0 {
		t.Fatal("MaxAge never evicted")
	}
	if l.Stats().OldestCursor <= 1 {
		t.Fatal("oldest cursor did not advance")
	}
}

func TestOversizedRecordGetsDedicatedSegment(t *testing.T) {
	l, err := Open(Config{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := event.New()
	big.Sender = ident.New(1)
	big.Seq = 1
	big.Stamp = time.Unix(1700000000, 0)
	big.Set("blob", event.Bytes(make([]byte, 4096)))
	if cur, _ := l.Append(big, 0, false); cur != 1 {
		t.Fatal("oversized append failed")
	}
	rec, ok := l.Next(1)
	if !ok {
		t.Fatal("oversized record unreadable")
	}
	defer rec.Release()
	e := event.New()
	if err := wire.DecodeEventInto(e, &wire.Packet{Payload: rec.Payload}); err != nil {
		t.Fatalf("decode oversized: %v", err)
	}
}

func TestSegmentLeakBalance(t *testing.T) {
	l, err := Open(Config{SegmentBytes: 256, MaxEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 64; i++ {
		l.Append(mkEvent(i, "leak"), 0, false)
	}
	// Hold reader references across eviction and Close: the buffers
	// must not recycle under the reader.
	var held []Record
	from := l.Stats().OldestCursor - 1
	for len(held) < 3 {
		rec, ok := l.Next(from + 1)
		if !ok {
			break
		}
		held = append(held, rec)
		from = rec.Cursor
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Leaked() == 0 {
		t.Fatal("expected outstanding reader references after Close")
	}
	for _, rec := range held {
		rec.Release()
	}
	st = l.Stats()
	if st.Leaked() != 0 {
		t.Fatalf("segment leak after readers drained: acquired=%d recycled=%d",
			st.SegmentsAcquired, st.SegmentsRecycled)
	}
}

func TestLeakBalanceViaBorrowingDecode(t *testing.T) {
	l, err := Open(Config{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		l.Append(mkEvent(i, "a-string-long-enough-to-avoid-interning-somewhere"), 0, false)
	}
	// Hand the reader reference to a borrowing decode: the event now
	// owns it, and releasing the event recycles the buffer.
	rec, ok := l.Next(5)
	if !ok {
		t.Fatal("Next(5) missing")
	}
	e := event.Acquire()
	bound, err := wire.DecodeEventBacked(e, rec.Payload, rec.Seg())
	if err != nil {
		t.Fatalf("backed decode: %v", err)
	}
	if !bound {
		rec.Release()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if bound {
		if l.Stats().Leaked() == 0 {
			t.Fatal("event should still hold its segment")
		}
	}
	e.Release()
	if got := l.Stats().Leaked(); got != 0 {
		t.Fatalf("leak after event release: %d", got)
	}
}

func TestDedupWindow(t *testing.T) {
	l, err := Open(Config{DedupWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	e := mkEvent(1, "dup")
	if _, dup := l.Append(e, 42, true); dup {
		t.Fatal("first append marked dup")
	}
	if _, dup := l.Append(e, 42, true); !dup {
		t.Fatal("repeat ID not deduplicated")
	}
	if st := l.Stats(); st.DupsDropped != 1 {
		t.Fatalf("DupsDropped=%d, want 1", st.DupsDropped)
	}
	// A different sender with the same ID is a different key.
	other := mkEvent(1, "dup")
	other.Sender = ident.New(0xDEF)
	if _, dup := l.Append(other, 42, true); dup {
		t.Fatal("different sender deduplicated")
	}
	// Push the first key out of the window; it is then accepted again.
	for id := int64(100); id < 104; id++ {
		l.Append(mkEvent(2, "fill"), id, true)
	}
	if _, dup := l.Append(e, 42, true); dup {
		t.Fatal("evicted dedup key still deduplicating")
	}
	// Duplicates do not consume cursors: the range stays dense.
	got := drainAll(t, l)
	for i, c := range got {
		if c != uint64(i+1) {
			t.Fatalf("cursor[%d]=%d: dups consumed cursors", i, c)
		}
	}
}

func TestDiskRecoveryGraceful(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 40; i++ {
		l.Append(mkEvent(i, "disk"), 0, false)
	}
	epoch := l.Epoch()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Epoch() != epoch {
		t.Fatalf("epoch changed across graceful restart: %x -> %x", epoch, r.Epoch())
	}
	got := drainAll(t, r)
	if len(got) != 40 || got[0] != 1 || got[39] != 40 {
		t.Fatalf("recovered %d records [%v..], want all 40", len(got), got)
	}
	// Appends continue after the recovered range.
	if cur, _ := r.Append(mkEvent(41, "post"), 0, false); cur != 41 {
		t.Fatalf("post-recovery cursor %d, want 41", cur)
	}
}

// TestCleanMarkerConsumedOnOpen pins the marker lifecycle: the clean
// marker written by Close is good for exactly one recovery. A clean
// restart that later crashes must still be detected as a crash.
func TestCleanMarkerConsumedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 40; i++ {
		l.Append(mkEvent(i, "marker"), 0, false)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean restart: epoch survives, marker is consumed.
	r, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	epoch := r.Epoch()
	// Abandon r without Close: a SIGKILL after the clean restart.

	r2, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Epoch() == epoch {
		t.Fatal("crash after a clean restart was not detected: epoch kept")
	}
	_ = r // keep the crashed instance alive to the end of the test
}

func TestCrashRecoveryToLastSyncedSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 40; i++ {
		l.Append(mkEvent(i, "crash"), 0, false)
	}
	epoch := l.Epoch()
	sealed := l.Stats().Segments - 1 // all but the active segment
	if sealed == 0 {
		t.Fatal("test needs at least one sealed segment")
	}
	// Wait for the async flusher to sync the sealed segments.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ents, _ := os.ReadDir(dir)
		n := 0
		for _, ent := range ents {
			if filepath.Ext(ent.Name()) == ".seg" {
				n++
			}
		}
		if uint64(n) >= sealed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher never wrote %d segments (have %d)", sealed, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// No Close: the log is abandoned as a SIGKILL would leave it. The
	// unflushed active tail is lost by contract.

	r, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// A crash rewinds the cursor space (the unsynced tail is gone), so
	// recovery MUST change the epoch: a consumer resuming with an old
	// cursor past the recovered tail would otherwise drop new records
	// that reuse those cursors as "already seen".
	if r.Epoch() == epoch {
		t.Fatalf("crash recovery kept epoch %x: stale consumer floors would swallow new records", epoch)
	}
	if r.Epoch() == 0 {
		t.Fatal("zero epoch is reserved for the client sentinel")
	}
	got := drainAll(t, r)
	if len(got) == 0 {
		t.Fatal("nothing recovered")
	}
	// Recovered prefix is contiguous from 1 and stops at a segment
	// boundary at or before 40.
	for i, c := range got {
		if c != uint64(i+1) {
			t.Fatalf("recovered cursor[%d]=%d: gap", i, c)
		}
	}
	if got[len(got)-1] > 40 {
		t.Fatalf("recovered past what was written: %d", got[len(got)-1])
	}
	// New appends continue after the recovered range, never reusing a
	// recovered cursor.
	cur, _ := r.Append(mkEvent(99, "post-crash"), 0, false)
	if cur != got[len(got)-1]+1 {
		t.Fatalf("post-crash cursor %d, want %d", cur, got[len(got)-1]+1)
	}
	_ = l // keep the crashed instance alive to the end of the test
}

func TestRecoveryTruncatesAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		l.Append(mkEvent(i, "corrupt"), 0, false)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	path := filepath.Join(dir, ents[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte two-thirds into the record area: every record from
	// the one containing it on fails its CRC and is truncated away.
	pos := segHeaderLen + (len(raw)-segHeaderLen)*2/3
	raw[pos] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Config{Dir: dir, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := drainAll(t, r)
	if len(got) == 0 || len(got) >= 20 {
		t.Fatalf("recovered %d records from corrupt file, want a proper prefix", len(got))
	}
	for i, c := range got {
		if c != uint64(i+1) {
			t.Fatalf("corrupt recovery not a prefix: cursor[%d]=%d", i, c)
		}
	}
}

// TestConcurrentAppendReplayChurn is the -race churn test: appenders,
// replaying readers and stats pollers run concurrently over a log
// small enough that retention constantly evicts under the readers.
func TestConcurrentAppendReplayChurn(t *testing.T) {
	l, err := Open(Config{SegmentBytes: 512, MaxEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	const (
		appenders = 3
		readers   = 3
		perApp    = 500
	)
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perApp; i++ {
				e := mkEvent(uint64(i), "churn")
				e.Sender = ident.New(uint64(0x1000 + a))
				l.Append(e, 0, false)
			}
		}(a)
	}
	stopRead := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := uint64(0)
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				rec, ok := l.Next(from + 1)
				if !ok {
					from = 0 // wrap: replay from the oldest again
					continue
				}
				e := event.Acquire()
				bound, err := wire.DecodeEventBacked(e, rec.Payload, rec.Seg())
				if err != nil {
					t.Errorf("churn decode: %v", err)
				}
				if !bound {
					rec.Release()
				}
				from = rec.Cursor
				e.Release()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = l.Stats()
			time.Sleep(time.Millisecond)
		}
	}()

	// Let appenders finish, then stop readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	time.Sleep(300 * time.Millisecond)
	close(stopRead)
	<-done

	st := l.Stats()
	if st.Appended != appenders*perApp {
		t.Fatalf("appended=%d, want %d", st.Appended, appenders*perApp)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Leaked(); got != 0 {
		t.Fatalf("segments leaked after churn: %d", got)
	}
}

func TestMemoryLogEpochsDiffer(t *testing.T) {
	a, _ := Open(Config{})
	b, _ := Open(Config{})
	defer a.Close()
	defer b.Close()
	if a.Epoch() == b.Epoch() {
		t.Fatal("two memory logs drew the same epoch")
	}
	if a.Epoch() == 0 || b.Epoch() == 0 {
		t.Fatal("zero epoch is reserved for the client sentinel")
	}
}

// waitTailRecords polls until the active segment's partial file at
// path holds want CRC-valid records (the tail flusher is async).
func waitTailRecords(t *testing.T, path string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if seg, _, err := readSegment(path); err == nil && len(seg.recs) >= want {
			return
		}
		if time.Now().After(deadline) {
			seg, _, err := readSegment(path)
			n := -1
			if err == nil {
				n = len(seg.recs)
			}
			t.Fatalf("tail sync never reached %d records (have %d, err %v)", want, n, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSyncEveryPersistsActiveTail: with SyncEvery, a crash loses at
// most the appends since the last tail sync — not the whole unsealed
// active segment.
func TestSyncEveryPersistsActiveTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SegmentBytes: 1 << 16, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := uint64(1); i <= n; i++ {
		l.Append(mkEvent(i, "tail"), 0, false)
	}
	epoch := l.Epoch()
	if got := l.Stats().Segments; got != 1 {
		t.Fatalf("test needs everything in the unsealed active segment, have %d", got)
	}
	waitTailRecords(t, segmentPath(dir, 1), n)
	// No Close: abandoned as a SIGKILL would leave it.

	r, err := Open(Config{Dir: dir, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Epoch() == epoch || r.Epoch() == 0 {
		t.Fatalf("crash recovery must rotate to a fresh non-zero epoch (got %x)", r.Epoch())
	}
	got := drainAll(t, r)
	if len(got) != n {
		t.Fatalf("recovered %d records from the synced tail, want %d", len(got), n)
	}
	for i, c := range got {
		if c != uint64(i+1) {
			t.Fatalf("recovered cursor[%d]=%d: gap", i, c)
		}
	}
	_ = l
}

// TestSyncIntervalPersistsActiveTail: the ticker alone (no SyncEvery)
// also bounds the loss window.
func TestSyncIntervalPersistsActiveTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SegmentBytes: 1 << 16, SyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	for i := uint64(1); i <= n; i++ {
		l.Append(mkEvent(i, "tick"), 0, false)
	}
	waitTailRecords(t, segmentPath(dir, 1), n)

	r, err := Open(Config{Dir: dir, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := drainAll(t, r); len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
	_ = l
}

// TestSyncTailTornWriteRecovery: a torn final record in the partial
// tail file truncates cleanly to the preceding CRC-valid prefix.
func TestSyncTailTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SegmentBytes: 1 << 16, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := uint64(1); i <= n; i++ {
		l.Append(mkEvent(i, "torn"), 0, false)
	}
	path := segmentPath(dir, 1)
	waitTailRecords(t, path, n)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last record's CRC: the write tore mid-record.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Config{Dir: dir, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := drainAll(t, r)
	if len(got) != n-1 {
		t.Fatalf("torn-tail recovery kept %d records, want %d", len(got), n-1)
	}
	for i, c := range got {
		if c != uint64(i+1) {
			t.Fatalf("torn recovery not a prefix: cursor[%d]=%d", i, c)
		}
	}
	_ = l
}

// TestSyncTailCorruptRecordRecovery: a CRC-corrupt record mid-tail
// truncates recovery there — CRC-valid records up to the first bad
// one, never garbage past it.
func TestSyncTailCorruptRecordRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SegmentBytes: 1 << 16, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := uint64(1); i <= n; i++ {
		l.Append(mkEvent(i, "crc"), 0, false)
	}
	path := segmentPath(dir, 1)
	waitTailRecords(t, path, n)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pos := segHeaderLen + (len(raw)-segHeaderLen)/2
	raw[pos] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Config{Dir: dir, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := drainAll(t, r)
	if len(got) == 0 || len(got) >= n {
		t.Fatalf("corrupt-tail recovery kept %d records, want a proper prefix", len(got))
	}
	for i, c := range got {
		if c != uint64(i+1) {
			t.Fatalf("corrupt recovery not a prefix: cursor[%d]=%d", i, c)
		}
	}
	_ = l
}

// TestSyncTailSealReplacesPartialFile: sealing the active segment
// atomically replaces its partial tail file with the complete sealed
// write; a graceful close then recovers everything under the same
// epoch.
func TestSyncTailSealReplacesPartialFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SegmentBytes: 256, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40 // spans several 256-byte segments
	for i := uint64(1); i <= n; i++ {
		l.Append(mkEvent(i, "seal"), 0, false)
	}
	epoch := l.Epoch()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Config{Dir: dir, SegmentBytes: 256, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Epoch() != epoch {
		t.Fatalf("clean shutdown must keep the epoch: %x != %x", r.Epoch(), epoch)
	}
	got := drainAll(t, r)
	if len(got) != n {
		t.Fatalf("recovered %d records after graceful close, want %d", len(got), n)
	}
}

// TestSyncTailConcurrentAppendChurn races the sync ticker against
// concurrent appenders and segment rollover (run with -race).
func TestSyncTailConcurrentAppendChurn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{
		Dir: dir, SegmentBytes: 512, MaxEvents: 128,
		SyncEvery: 4, SyncInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(0); i < 200; i++ {
				l.Append(mkEvent(i, "churn"), 0, false)
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: dir, SegmentBytes: 512, MaxEvents: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := drainAll(t, r); len(got) == 0 {
		t.Fatal("nothing recovered after churn")
	}
}
