// Package store implements the durable event log behind the bus: an
// append-only, segment-based log of published events, each stamped
// with a monotonic per-cell cursor. It is the substrate for durable
// subscriptions — a member that disconnects and rejoins replays the
// gap from this log before splicing back into live traffic.
//
// Layering discipline matches wire.FlagBatch: a log record wraps the
// frozen single-event wire encoding unchanged. A record is
//
//	uvarint payload-length | payload (wire.AppendEvent bytes) | crc32
//
// so the event bytes inside the log are byte-identical to what travels
// alone in a PktEvent — the frozen encoding is never forked.
//
// Lifecycle contract (the PR 3/4 machinery, extended): segment buffers
// are pooled and recycled. The log holds one reference per live
// segment; readers take their own via Record.Seg().Retain (a Segment
// implements event.Backing, so a borrowing decode can alias record
// bytes and hand the event the reference that keeps the buffer alive).
// A segment's buffer returns to the free list only when the log has
// evicted it AND every reader reference has drained — leaks are
// observable via Stats.SegmentsAcquired/SegmentsRecycled, exactly like
// the packet pool's counters.
//
// Retention is governed by MaxAge/MaxBytes/MaxEvents with
// segment-granularity eviction: the oldest sealed segment is dropped
// whole once any knob is exceeded; the active segment is never
// evicted.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/wire"
)

// AttrDedup is the reserved attribute naming a publisher-side dedup
// ID (int). A publisher that re-sends a logical event after a restart
// stamps the same ID; the log drops the duplicate append, making
// redelivery idempotent across sender restarts. IDs are deduplicated
// per sender within a sliding window of Config.DedupWindow appends.
const AttrDedup = "_dedup"

// Config tunes the log.
type Config struct {
	// Dir, when non-empty, persists segments to disk: each sealed
	// segment is written and synced by a background flusher, and the
	// SyncEvery/SyncInterval knobs additionally write-behind-sync the
	// active segment's tail. After a crash the log recovers every
	// CRC-valid record up to the first torn one — without tail syncs
	// that means the last sealed segment. An empty Dir keeps the log
	// memory-only.
	Dir string
	// SegmentBytes sizes one segment buffer (default 64 KiB). A record
	// larger than a whole segment still fits: it gets a dedicated
	// oversized segment.
	SegmentBytes int
	// MaxEvents bounds retained events (0 = unlimited).
	MaxEvents uint64
	// MaxBytes bounds retained record bytes (default 16 MiB; the log
	// is memory-resident, so this is also its memory bound).
	MaxBytes uint64
	// MaxAge bounds a record's retention by append time (0 =
	// unlimited). Enforced at segment granularity on append: a sealed
	// segment is evicted once its newest record is older than MaxAge.
	MaxAge time.Duration
	// DedupWindow is the number of recent publisher dedup IDs
	// remembered per log (default 4096, 0 keeps the default; negative
	// disables dedup).
	DedupWindow int
	// SyncEvery, when > 0 on a disk-backed log, write-behind-syncs the
	// active segment's appended tail after every N appends: the flusher
	// persists the new record bytes to the segment's (partial) file and
	// fsyncs. Recovery then scans CRC-valid records up to the first
	// torn one, so a crash loses at most the records since the last
	// tail sync instead of the whole unsealed segment.
	SyncEvery int
	// SyncInterval, when > 0 on a disk-backed log, bounds the crash-loss
	// window in time: a ticker syncs the active segment's tail at least
	// this often while new records are pending. Combines with SyncEvery;
	// either alone is enough to enable partial-segment persistence.
	SyncInterval time.Duration
}

func (c *Config) fillDefaults() {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 10
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 16 << 20
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 4096
	}
}

// Stats is a point-in-time snapshot of the log.
type Stats struct {
	// Epoch identifies this log incarnation: cursors are only
	// comparable within one epoch. A disk-backed log keeps its epoch
	// across clean restarts; a crash recovery draws a fresh one (the
	// lost unsynced tail rewinds the cursor space, so old cursors
	// would alias new records). A memory log draws a fresh one per
	// Open.
	Epoch uint64
	// OldestCursor/NewestCursor bound the retained range (both 0 when
	// the log is empty).
	OldestCursor uint64
	NewestCursor uint64
	// Events/Bytes/Segments describe current retention (depth).
	Events   uint64
	Bytes    uint64
	Segments uint64
	// Appended counts records ever appended; Evicted counts records
	// dropped by retention; DupsDropped counts appends suppressed by
	// the publisher dedup window.
	Appended    uint64
	Evicted     uint64
	DupsDropped uint64
	// SegmentsAcquired/SegmentsRecycled are the segment-buffer pool
	// counters: on a closed log with no outstanding readers they are
	// equal — the leak check mirrors reliable.Stats.PacketsAcquired/
	// PacketsRecycled.
	SegmentsAcquired uint64
	SegmentsRecycled uint64
}

// Leaked reports segment buffers acquired but not yet recycled.
func (s Stats) Leaked() uint64 {
	if s.SegmentsAcquired < s.SegmentsRecycled {
		return 0
	}
	return s.SegmentsAcquired - s.SegmentsRecycled
}

// dedupKey identifies one publisher-supplied dedup ID.
type dedupKey struct {
	sender ident.ID
	id     int64
}

// Log is the append-only segment log.
type Log struct {
	cfg   Config
	epoch uint64

	mu       sync.Mutex
	segs     []*Segment // oldest first; last is the active segment
	next     uint64     // next cursor to assign (first is 1)
	events   uint64
	bytes    uint64
	closed   bool
	appended uint64
	evicted  uint64
	dups     uint64

	// Publisher dedup window: a bounded FIFO of recently seen IDs.
	dedup     map[dedupKey]struct{}
	dedupRing []dedupKey

	// Segment-buffer free list (bounded) and pool counters. Guarded by
	// poolMu, not mu: a segment's last reference can drop from a
	// reader or the flusher while an eviction holds mu, so routing the
	// recycle through mu would deadlock.
	poolMu   sync.Mutex
	free     []*Segment
	acquired uint64
	recycled uint64

	// flush is the disk mirror; nil for memory-only logs.
	flush *flusher

	// Write-behind tail-sync state (guarded by mu). sinceSync counts
	// appends since the last SyncEvery-triggered sync; lastSyncSeg/
	// lastSyncLen suppress redundant ticker syncs when nothing new was
	// appended.
	sinceSync   int
	lastSyncSeg *Segment
	lastSyncLen int

	// syncStop/syncDone bracket the SyncInterval ticker goroutine
	// (nil when it never started).
	syncStop chan struct{}
	syncDone chan struct{}
}

// Open creates (or, with Dir set, recovers) a log.
func Open(cfg Config) (*Log, error) {
	cfg.fillDefaults()
	l := &Log{
		cfg:   cfg,
		epoch: newEpoch(),
		next:  1,
	}
	if cfg.DedupWindow > 0 {
		l.dedup = make(map[dedupKey]struct{}, cfg.DedupWindow)
	}
	if cfg.Dir != "" {
		if err := l.recover(); err != nil {
			return nil, err
		}
		l.flush = newFlusher(cfg.Dir)
		if cfg.SyncInterval > 0 {
			l.syncStop = make(chan struct{})
			l.syncDone = make(chan struct{})
			go l.syncLoop()
		}
	}
	return l, nil
}

// newEpoch draws a non-zero random epoch. Zero is reserved as the
// client-side "no position yet" sentinel.
func newEpoch() uint64 {
	for {
		if e := rand.Uint64(); e != 0 {
			return e
		}
	}
}

// Epoch identifies this log incarnation.
func (l *Log) Epoch() uint64 { return l.epoch }

// AppendHook is a caller's step inside an Append. Appended runs under
// the append lock with the cursor just assigned, so whatever it hands
// the cursor on to receives cursors in log order, and nothing can
// observe the tail (AtTail) between the append and the hook. It must
// not block and must not call back into the log.
type AppendHook interface {
	Appended(cursor uint64)
}

// Append appends one event and returns its cursor. When the event
// carries a publisher dedup ID (hasDedup) that was seen within the
// dedup window, nothing is appended and dup is true (cursor 0). Hooks
// run under the append lock once the record is in the log; a
// suppressed duplicate runs none.
func (l *Log) Append(e *event.Event, dedupID int64, hasDedup bool, hook ...AppendHook) (cursor uint64, dup bool) {
	// Encode and checksum outside the lock: the payload bytes do not
	// depend on log state, so the append lock serialises only the
	// cursor assignment and the copy into the active segment.
	bp := wire.GetEncodeBuf()
	payload := wire.AppendEvent((*bp)[:0], e)
	*bp = payload
	n := len(payload)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	// Record timestamps exist only for MaxAge retention; without it,
	// skip the clock reads entirely (two per append otherwise — they
	// dominate the append cost on vDSO-less hosts).
	var now time.Time
	if l.cfg.MaxAge > 0 {
		now = time.Now()
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		wire.PutEncodeBuf(bp)
		return 0, false
	}
	if hasDedup && l.dedup != nil {
		k := dedupKey{sender: e.Sender, id: dedupID}
		if _, seen := l.dedup[k]; seen {
			l.dups++
			l.mu.Unlock()
			wire.PutEncodeBuf(bp)
			return 0, true
		}
		if len(l.dedupRing) >= l.cfg.DedupWindow {
			old := l.dedupRing[0]
			l.dedupRing = l.dedupRing[1:]
			delete(l.dedup, old)
		}
		l.dedup[k] = struct{}{}
		l.dedupRing = append(l.dedupRing, k)
	}

	rec := recordSize(n)
	seg := l.activeLocked(rec)
	off := len(seg.buf)
	seg.buf = binary.AppendUvarint(seg.buf, uint64(n))
	payStart := len(seg.buf)
	seg.buf = append(seg.buf, payload...)
	seg.buf = append(seg.buf, crc[:]...)
	seg.recs = append(seg.recs, recBounds{off: uint32(payStart), n: uint32(n)})
	seg.last = now
	if len(seg.recs) == 1 {
		seg.first = seg.last
	}

	cursor = l.next
	l.next++
	l.appended++
	l.events++
	l.bytes += uint64(len(seg.buf) - off)
	l.retainLocked(now)
	if l.flush != nil && l.cfg.SyncEvery > 0 {
		l.sinceSync++
		if l.sinceSync >= l.cfg.SyncEvery && l.trySyncLocked(seg) {
			l.sinceSync = 0
		}
	}
	for _, h := range hook {
		h.Appended(cursor)
	}
	l.mu.Unlock()
	wire.PutEncodeBuf(bp)
	return cursor, false
}

// recordSize is the worst-case record footprint for an n-byte payload.
func recordSize(n int) int { return binary.MaxVarintLen64 + n + 4 }

// activeLocked returns the active segment with room for a need-byte
// record, sealing and rotating first when it is full.
func (l *Log) activeLocked(need int) *Segment {
	if len(l.segs) > 0 {
		seg := l.segs[len(l.segs)-1]
		if !seg.sealed && len(seg.buf)+need <= cap(seg.buf) {
			return seg
		}
		if !seg.sealed {
			l.sealLocked(seg)
		}
	}
	size := l.cfg.SegmentBytes
	if need > size {
		size = need // oversized record gets a dedicated segment
	}
	seg := l.acquireSegment(size)
	seg.base = l.next
	l.segs = append(l.segs, seg)
	return seg
}

// sealLocked marks a segment immutable and hands it to the disk
// mirror.
func (l *Log) sealLocked(seg *Segment) {
	seg.sealed = true
	if seg == l.lastSyncSeg {
		l.lastSyncSeg = nil
	}
	if l.flush != nil && len(seg.recs) > 0 {
		seg.retain() // flusher's reference
		l.flush.enqueue(flushOp{seg: seg, epoch: l.epoch})
	}
}

// trySyncLocked enqueues (non-blocking) a write-behind sync of the
// active segment's current tail. The record bytes are captured as a
// slice under mu, so the flusher never touches seg.buf concurrently
// with appends. Returns false when the flusher queue is full — the
// caller keeps its trigger armed and the next append retries.
func (l *Log) trySyncLocked(seg *Segment) bool {
	if seg.sealed || len(seg.recs) == 0 {
		return false
	}
	if seg == l.lastSyncSeg && len(seg.buf) == l.lastSyncLen {
		return true // nothing new since the last enqueued sync
	}
	seg.retain()
	op := flushOp{seg: seg, epoch: l.epoch, data: seg.buf[:len(seg.buf):len(seg.buf)], sync: true}
	if !l.flush.tryEnqueue(op) {
		seg.release()
		return false
	}
	l.lastSyncSeg, l.lastSyncLen = seg, len(seg.buf)
	return true
}

// syncLoop is the SyncInterval ticker: while records are pending it
// keeps the crash-loss window under one interval by syncing the active
// segment's tail.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.syncStop:
			return
		case <-t.C:
		}
		l.mu.Lock()
		if !l.closed && l.flush != nil && len(l.segs) > 0 {
			seg := l.segs[len(l.segs)-1]
			if l.trySyncLocked(seg) {
				l.sinceSync = 0
			}
		}
		l.mu.Unlock()
	}
}

// retainLocked enforces retention: evict whole sealed segments from
// the front while any knob is exceeded. The active segment survives.
// now is the append timestamp (zero when MaxAge is off).
func (l *Log) retainLocked(now time.Time) {
	for len(l.segs) > 1 {
		seg := l.segs[0]
		if !seg.sealed {
			return
		}
		over := (l.cfg.MaxEvents > 0 && l.events > l.cfg.MaxEvents) ||
			l.bytes > l.cfg.MaxBytes ||
			(l.cfg.MaxAge > 0 && now.Sub(seg.last) > l.cfg.MaxAge)
		if !over {
			return
		}
		l.evictLocked(seg)
	}
}

// evictLocked drops the front segment from the index and releases the
// log's reference; the buffer recycles when readers drain.
func (l *Log) evictLocked(seg *Segment) {
	l.segs = l.segs[1:]
	l.events -= uint64(len(seg.recs))
	l.bytes -= uint64(len(seg.buf))
	l.evicted += uint64(len(seg.recs))
	if l.flush != nil {
		l.flush.enqueue(flushOp{remove: segmentPath(l.cfg.Dir, seg.base)})
	}
	seg.release()
}

func (l *Log) oldestLocked() uint64 {
	for _, seg := range l.segs {
		if len(seg.recs) > 0 {
			return seg.base
		}
	}
	return 0
}

// Record is one retained log record. Payload aliases the segment
// buffer and stays valid while the caller holds the segment reference
// Next took on its behalf: either Release the record when done, or
// hand the reference to a borrowing decode (Seg implements
// event.Backing) and let the event's lifecycle release it.
type Record struct {
	Cursor  uint64
	Payload []byte
	seg     *Segment
}

// Seg exposes the retained segment as an event backing.
func (r Record) Seg() *Segment { return r.seg }

// Release drops the reader's segment reference.
func (r Record) Release() {
	if r.seg != nil {
		r.seg.release()
	}
}

// Next returns the first retained record with cursor >= from, with a
// segment reference already taken for the caller. ok=false means no
// such record exists yet (from is past the tail; see AtTail). A from
// below the retained range skips forward to the oldest record
// (retention won); callers detect the gap via Record.Cursor > from.
func (l *Log) Next(from uint64) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || len(l.segs) == 0 {
		return Record{}, false
	}
	// Binary search the first segment whose range may contain >= from.
	i := sort.Search(len(l.segs), func(i int) bool {
		seg := l.segs[i]
		return seg.base+uint64(len(seg.recs)) > from
	})
	if i == len(l.segs) {
		return Record{}, false
	}
	seg := l.segs[i]
	idx := 0
	if from > seg.base {
		idx = int(from - seg.base)
	}
	if idx >= len(seg.recs) {
		// Only possible for the active segment with from == tail+1.
		return Record{}, false
	}
	rb := seg.recs[idx]
	seg.retain()
	return Record{
		Cursor:  seg.base + uint64(idx),
		Payload: seg.buf[rb.off : rb.off+rb.n],
		seg:     seg,
	}, true
}

// AtTail runs fn under the append lock with the newest cursor (0 before
// any append): no append, and so no AppendHook, runs while fn does. A
// reader that finds nothing past its cursor uses it to hand over to an
// AppendHook with no gap and no overlap.
func (l *Log) AtTail(fn func(newest uint64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fn(l.next - 1)
}

// Stats snapshots the log.
func (l *Log) Stats() Stats {
	l.poolMu.Lock()
	acquired, recycled := l.acquired, l.recycled
	l.poolMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Epoch:            l.epoch,
		OldestCursor:     l.oldestLocked(),
		NewestCursor:     l.next - 1,
		Events:           l.events,
		Bytes:            l.bytes,
		Segments:         uint64(len(l.segs)),
		Appended:         l.appended,
		Evicted:          l.evicted,
		DupsDropped:      l.dups,
		SegmentsAcquired: acquired,
		SegmentsRecycled: recycled,
	}
}

// Close seals and (for disk-backed logs) flushes the active segment,
// stops the flusher, and releases every retained segment. Outstanding
// reader references keep their buffers alive; the pool counters
// balance once those drain.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	segs := l.segs
	l.segs = nil
	l.events, l.bytes = 0, 0
	if len(segs) > 0 {
		seg := segs[len(segs)-1]
		if !seg.sealed {
			l.sealLocked(seg) // graceful close persists the tail
		}
	}
	flush := l.flush
	l.flush = nil
	l.mu.Unlock()

	// Stop the sync ticker before closing the flusher: the loop
	// enqueues under mu and has observed closed by now, so no sync op
	// can race the channel close below.
	if l.syncStop != nil {
		close(l.syncStop)
		<-l.syncDone
	}

	var err error
	if flush != nil {
		err = flush.close() // drains pending writes first
		if err == nil {
			// Every segment is on disk: mark the shutdown clean so the
			// next Open keeps the epoch. A crash (no marker) or a flush
			// failure (tail lost) leaves the directory dirty and forces
			// a fresh epoch on recovery.
			err = os.WriteFile(filepath.Join(l.cfg.Dir, cleanMarkerName), nil, 0o644)
		}
	}
	for _, seg := range segs {
		seg.release()
	}
	return err
}

// ---- segments ----

// recBounds locates one record's payload inside the segment buffer.
type recBounds struct {
	off uint32 // payload start
	n   uint32 // payload length
}

// Segment is one pooled log buffer: base cursor, record bytes, and the
// per-record payload index. It implements event.Backing so borrowing
// decodes of log records can alias its buffer; the buffer recycles
// when the log's own reference and every reader's have drained.
type Segment struct {
	base   uint64
	buf    []byte
	recs   []recBounds
	first  time.Time // append time of the first record
	last   time.Time // append time of the newest record
	sealed bool

	// diskSynced is the number of record bytes persisted to this
	// segment's partial tail file. Flusher-goroutine-only; the reset in
	// acquireSegment is ordered by the pool handoff.
	diskSynced int

	log  *Log
	mu   sync.Mutex
	refs int32
}

// Release implements event.Backing.
func (s *Segment) Release() { s.release() }

func (s *Segment) retain() {
	s.mu.Lock()
	s.refs++
	s.mu.Unlock()
}

func (s *Segment) release() {
	s.mu.Lock()
	s.refs--
	done := s.refs == 0
	s.mu.Unlock()
	if done {
		s.log.recycleSegment(s)
	}
}

// acquireSegment takes a buffer from the free list (or allocates) and
// returns a segment holding the log's own reference.
func (l *Log) acquireSegment(size int) *Segment {
	l.poolMu.Lock()
	l.acquired++
	var seg *Segment
	if n := len(l.free); n > 0 && cap(l.free[n-1].buf) >= size {
		seg = l.free[n-1]
		l.free = l.free[:n-1]
	}
	l.poolMu.Unlock()
	if seg != nil {
		seg.buf = seg.buf[:0]
		seg.recs = seg.recs[:0]
	} else {
		seg = &Segment{
			buf:  make([]byte, 0, size),
			recs: make([]recBounds, 0, 64),
		}
	}
	seg.log = l
	seg.base = 0
	seg.sealed = false
	seg.diskSynced = 0
	seg.first, seg.last = time.Time{}, time.Time{}
	seg.refs = 1
	return seg
}

// recycleSegment returns a fully released segment's buffer to the free
// list (bounded; beyond that it is dropped to the GC). Counted either
// way — recycled mirrors acquired.
func (l *Log) recycleSegment(seg *Segment) {
	l.poolMu.Lock()
	defer l.poolMu.Unlock()
	l.recycled++
	if len(l.free) >= 4 || cap(seg.buf) != l.cfg.SegmentBytes {
		return // oversized or surplus buffers are not pooled
	}
	l.free = append(l.free, seg)
}

// ---- disk mirror ----

const (
	segMagic   = "SMLG"
	segVersion = 1
	// segHeaderLen is magic + version byte + epoch + base cursor.
	segHeaderLen = 4 + 1 + 8 + 8
	// cleanMarkerName marks a clean shutdown: written by Close after
	// the tail is flushed, consumed (removed) by the next recovery.
	cleanMarkerName = "clean"
)

// castagnoli is the record-checksum polynomial: CRC-32C has hardware
// support (SSE4.2 / ARMv8 CRC instructions) where IEEE falls back to
// table slicing, and the checksum sits on the publish hot path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segmentPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d.seg", base))
}

// flushOp is one unit of flusher work: write a sealed segment, sync
// the active segment's tail (data holds the record bytes captured
// under the log lock), or remove an evicted one's file.
type flushOp struct {
	seg    *Segment
	epoch  uint64
	data   []byte // sync: immutable prefix of the segment's record bytes
	sync   bool
	remove string
}

// flusher serialises disk writes off the append path: sealed segments
// are written and fsynced in order, active-segment tails are appended
// to a partial file under the write-behind sync policy, evictions
// remove files. Without tail syncs, losing the unflushed active
// segment on SIGKILL is the contract — recovery returns the last
// synced state either way.
type flusher struct {
	dir  string
	ops  chan flushOp
	done chan struct{}
	err  error

	// partial maps an active segment to its open tail file. An entry
	// retires when the sealed write replaces the partial file
	// (tmp+rename) — FIFO op order guarantees the seal arrives after
	// every tail sync for that segment.
	partial map[*Segment]*os.File
}

func newFlusher(dir string) *flusher {
	f := &flusher{
		dir:     dir,
		ops:     make(chan flushOp, 16),
		done:    make(chan struct{}),
		partial: make(map[*Segment]*os.File),
	}
	go f.loop()
	return f
}

func (f *flusher) enqueue(op flushOp) {
	select {
	case f.ops <- op:
	case <-f.done:
		if op.seg != nil {
			op.seg.release()
		}
	}
}

// tryEnqueue is the non-blocking variant used by tail syncs, which are
// enqueued under the log lock: a full queue skips the sync (the next
// trigger retries) rather than stalling appends.
func (f *flusher) tryEnqueue(op flushOp) bool {
	select {
	case f.ops <- op:
		return true
	default:
		return false
	}
}

func (f *flusher) loop() {
	for op := range f.ops {
		if op.remove != "" {
			_ = os.Remove(op.remove)
			continue
		}
		if op.sync {
			if err := f.syncTail(op.seg, op.epoch, op.data); err != nil && f.err == nil {
				f.err = err
			}
			op.seg.release()
			continue
		}
		if file, ok := f.partial[op.seg]; ok {
			_ = file.Close()
			delete(f.partial, op.seg)
		}
		if err := writeSegment(f.dir, op.seg, op.epoch); err != nil && f.err == nil {
			f.err = err
		}
		op.seg.release()
	}
	for _, file := range f.partial {
		_ = file.Close()
	}
	close(f.done)
}

// syncTail persists the active segment's appended tail: on first sync
// the partial file is created with the segment header, then each sync
// appends only the record bytes not yet on disk and fsyncs. data is a
// stable snapshot (records are immutable once appended), so reading it
// off the append path is safe.
func (f *flusher) syncTail(seg *Segment, epoch uint64, data []byte) error {
	file, ok := f.partial[seg]
	if !ok {
		var hdr [segHeaderLen]byte
		copy(hdr[:4], segMagic)
		hdr[4] = segVersion
		binary.BigEndian.PutUint64(hdr[5:13], epoch)
		binary.BigEndian.PutUint64(hdr[13:21], seg.base)
		var err error
		file, err = os.OpenFile(segmentPath(f.dir, seg.base), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err = file.WriteAt(hdr[:], 0); err != nil {
			_ = file.Close()
			return err
		}
		f.partial[seg] = file
		seg.diskSynced = 0
	}
	if len(data) <= seg.diskSynced {
		return nil // a later sync already covered this prefix
	}
	if _, err := file.WriteAt(data[seg.diskSynced:], int64(segHeaderLen+seg.diskSynced)); err != nil {
		return err
	}
	if err := file.Sync(); err != nil {
		return err
	}
	seg.diskSynced = len(data)
	return nil
}

func (f *flusher) close() error {
	close(f.ops)
	<-f.done
	return f.err
}

// writeSegment persists one sealed segment: header + raw record bytes,
// fsynced, written via a temp file so a torn write never shadows a
// good segment.
func writeSegment(dir string, seg *Segment, epoch uint64) error {
	var hdr [segHeaderLen]byte
	copy(hdr[:4], segMagic)
	hdr[4] = segVersion
	binary.BigEndian.PutUint64(hdr[5:13], epoch)
	binary.BigEndian.PutUint64(hdr[13:21], seg.base)
	path := segmentPath(dir, seg.base)
	tmp := path + ".tmp"
	file, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = file.Write(hdr[:]); err == nil {
		_, err = file.Write(seg.buf)
	}
	if err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// recover rebuilds the log from Dir: segment files load in base-cursor
// order, each record re-validated (length prefix + CRC) with
// truncation at the first corrupt record — the log recovers to the
// last synced, intact state.
//
// The epoch persists with the segments only across a clean shutdown
// (marker present). After a crash the unsynced tail is gone and the
// cursor space rewinds, so keeping the epoch would let a consumer's
// stale floor silently swallow new records that reuse those cursors —
// instead recovery draws a fresh epoch and consumers replay from the
// oldest retained record (at-least-once, never a blackhole).
func (l *Log) recover() error {
	if err := os.MkdirAll(l.cfg.Dir, 0o755); err != nil {
		return err
	}
	marker := filepath.Join(l.cfg.Dir, cleanMarkerName)
	clean := false
	if _, err := os.Stat(marker); err == nil {
		clean = true
		_ = os.Remove(marker) // dirty while running
	}
	entries, err := os.ReadDir(l.cfg.Dir)
	if err != nil {
		return err
	}
	var paths []string
	for _, ent := range entries {
		if !ent.IsDir() && filepath.Ext(ent.Name()) == ".seg" {
			paths = append(paths, filepath.Join(l.cfg.Dir, ent.Name()))
		}
	}
	sort.Strings(paths) // zero-padded base cursors sort numerically
	for _, path := range paths {
		seg, epoch, err := readSegment(path)
		if err != nil || len(seg.recs) == 0 {
			_ = os.Remove(path) // corrupt beyond the header, or empty
			continue
		}
		if seg.base < l.next {
			_ = os.Remove(path) // overlaps recovered range: stale file
			continue
		}
		seg.log = l
		seg.sealed = true
		seg.refs = 1
		l.epoch = epoch
		l.segs = append(l.segs, seg)
		l.poolMu.Lock()
		l.acquired++ // recovered buffers enter the pool accounting
		l.poolMu.Unlock()
		l.events += uint64(len(seg.recs))
		l.bytes += uint64(len(seg.buf))
		l.next = seg.base + uint64(len(seg.recs))
	}
	if len(l.segs) > 0 && !clean {
		l.epoch = newEpoch() // crash recovery: see the doc comment above
	}
	return nil
}

// readSegment loads and validates one segment file, truncating at the
// first corrupt record.
func readSegment(path string) (*Segment, uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	seg, epoch, err := parseSegment(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %s: %w", path, err)
	}
	return seg, epoch, nil
}

// parseSegment validates the bytes of one segment file: the header,
// then records up to the first whose length prefix or CRC does not
// hold.
func parseSegment(raw []byte) (*Segment, uint64, error) {
	if len(raw) < segHeaderLen || string(raw[:4]) != segMagic || raw[4] != segVersion {
		return nil, 0, errors.New("bad segment header")
	}
	epoch := binary.BigEndian.Uint64(raw[5:13])
	base := binary.BigEndian.Uint64(raw[13:21])
	body := raw[segHeaderLen:]
	seg := &Segment{base: base}
	off := 0
	for off < len(body) {
		n, sz := binary.Uvarint(body[off:])
		// Compare in uint64: a huge prefix must not wrap int arithmetic.
		if sz <= 0 || uint64(len(body)-off-sz) < 4 || n > uint64(len(body)-off-sz-4) {
			break // torn tail: truncate here
		}
		payStart := off + sz
		pay := body[payStart : payStart+int(n)]
		want := binary.BigEndian.Uint32(body[payStart+int(n) : payStart+int(n)+4])
		if crc32.Checksum(pay, castagnoli) != want {
			break
		}
		seg.recs = append(seg.recs, recBounds{off: uint32(payStart), n: uint32(n)})
		off = payStart + int(n) + 4
	}
	seg.buf = body[:off]
	now := time.Now()
	seg.first, seg.last = now, now // age restarts at recovery
	return seg, epoch, nil
}
