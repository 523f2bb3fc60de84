package wire

import (
	"bytes"
	"fmt"
)

// Cell health snapshot exchanged on the management plane
// (PktStatsRequest / PktStatsResponse): a one-shot, black-box view of
// a live cell — membership, bus activity, and the reliable channels'
// counters including the packet-pool leak check
// (PacketsAcquired/PacketsRecycled) — so an operator or a test harness
// can health- and leak-check a cell without attaching a debugger.

// ChannelCounters mirrors one reliable channel's Stats on the wire.
type ChannelCounters struct {
	Sent            uint64
	Acked           uint64
	Retransmits     uint64
	FastRetransmits uint64
	Failures        uint64
	Resumed         uint64
	StreamResets    uint64
	Received        uint64
	DupsDropped     uint64
	Buffered        uint64
	StaleAcks       uint64
	StaleEpoch      uint64
	UnreliableIn    uint64
	UnreliableOut   uint64
	PacketsAcquired uint64
	PacketsRecycled uint64
}

// Leaked reports the packet-pool gap: packets acquired but never
// recycled. On a quiesced channel this should be zero.
func (c ChannelCounters) Leaked() uint64 {
	if c.PacketsAcquired < c.PacketsRecycled {
		return 0
	}
	return c.PacketsAcquired - c.PacketsRecycled
}

// LogCounters mirrors the durable event log's Stats on the wire. A
// cell without a durable log reports Enabled=false and zeroes.
type LogCounters struct {
	Enabled          bool
	Epoch            uint64
	OldestCursor     uint64
	NewestCursor     uint64
	Events           uint64
	Bytes            uint64
	Segments         uint64
	Appended         uint64
	Evicted          uint64
	DupsDropped      uint64
	SegmentsAcquired uint64
	SegmentsRecycled uint64
}

// DurableCounters is one durable consumer's management-plane row.
type DurableCounters struct {
	// Name is the durable consumer name.
	Name string
	// Attached reports whether a member is currently bound to it.
	Attached bool
	// Delivered is the last cursor handed to the member's proxy.
	Delivered uint64
	// Lag is NewestCursor - Delivered: retained events not yet
	// dispatched to this consumer.
	Lag uint64
}

// FederationCounters is one federation link's management-plane row.
type FederationCounters struct {
	// Name identifies the link (the gateway device name in the remote
	// cell).
	Name string
	// RemoteCell is the cell being imported from.
	RemoteCell string
	// Connected reports whether the link currently holds a live
	// remote membership (false while the supervisor is reconnecting).
	Connected bool
	// Imported / Skipped / Dropped / Reconnects mirror the link's
	// counters: events republished locally, loop-prevention skips,
	// imports a closed home bus refused, and completed reconnect
	// cycles.
	Imported   uint64
	Skipped    uint64
	Dropped    uint64
	Reconnects uint64
	// ResumeEpoch / ResumeCursor are the link's last recorded resume
	// position in the remote cell's durable cursor space (zero when
	// the remote cell has no durable log).
	ResumeEpoch  uint64
	ResumeCursor uint64
}

// CellStats is the full management-plane snapshot of one cell.
type CellStats struct {
	// Cell is the cell's name.
	Cell string
	// Members is the discovery service's current member count.
	Members uint32
	// Bus activity counters (a subset of the bus's Stats).
	Published      uint64
	DeliveredLocal uint64
	EnqueuedRemote uint64
	Dropped        uint64
	Quenches       uint64
	AuthDenied     uint64
	// BusChannel / DiscChannel are the two reliable endpoints.
	BusChannel  ChannelCounters
	DiscChannel ChannelCounters
	// Log is the durable event log (zero value when disabled) and
	// Durables its per-consumer lag rows.
	Log      LogCounters
	Durables []DurableCounters
	// Federation holds one row per federation link importing into
	// this cell.
	Federation []FederationCounters
}

// Each struct lists its wire fields once, in encoding order; the list
// drives both directions. A *uint64 or *uint32 travels as a uvarint, a
// *bool as uvarint 0 or 1, a *string length-prefixed.

func (c *ChannelCounters) fields() []any {
	return []any{
		&c.Sent, &c.Acked, &c.Retransmits, &c.FastRetransmits, &c.Failures,
		&c.Resumed, &c.StreamResets, &c.Received, &c.DupsDropped, &c.Buffered,
		&c.StaleAcks, &c.StaleEpoch, &c.UnreliableIn, &c.UnreliableOut,
		&c.PacketsAcquired, &c.PacketsRecycled,
	}
}

func (l *LogCounters) fields() []any {
	return []any{
		&l.Enabled, &l.Epoch, &l.OldestCursor, &l.NewestCursor,
		&l.Events, &l.Bytes, &l.Segments, &l.Appended, &l.Evicted,
		&l.DupsDropped, &l.SegmentsAcquired, &l.SegmentsRecycled,
	}
}

func (d *DurableCounters) fields() []any {
	return []any{&d.Name, &d.Attached, &d.Delivered, &d.Lag}
}

func (f *FederationCounters) fields() []any {
	return []any{
		&f.Name, &f.RemoteCell, &f.Connected, &f.Imported, &f.Skipped,
		&f.Dropped, &f.Reconnects, &f.ResumeEpoch, &f.ResumeCursor,
	}
}

// fields lists everything ahead of the two row tables.
func (s *CellStats) fields() []any {
	f := []any{
		&s.Cell, &s.Members, &s.Published, &s.DeliveredLocal,
		&s.EnqueuedRemote, &s.Dropped, &s.Quenches, &s.AuthDenied,
	}
	f = append(f, s.BusChannel.fields()...)
	f = append(f, s.DiscChannel.fields()...)
	return append(f, s.Log.fields()...)
}

func appendFields(dst []byte, fields []any) []byte {
	for _, f := range fields {
		switch p := f.(type) {
		case *string:
			dst = appendString(dst, *p)
		case *uint64:
			dst = appendUvarint(dst, *p)
		case *uint32:
			dst = appendUvarint(dst, uint64(*p))
		case *bool:
			if *p {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

func (r *reader) fields(fields []any) (err error) {
	for _, f := range fields {
		var v uint64
		if p, ok := f.(*string); ok {
			*p, err = r.string()
		} else if v, err = r.uvarint(); err == nil {
			switch p := f.(type) {
			case *uint64:
				*p = v
			case *uint32:
				*p = uint32(v)
			case *bool:
				*p = v != 0
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func appendRows[T any](dst []byte, rows []T, fields func(*T) []any) []byte {
	dst = appendUvarint(dst, uint64(len(rows)))
	for i := range rows {
		dst = appendFields(dst, fields(&rows[i]))
	}
	return dst
}

// readRows reads a counted table; an empty one decodes to nil. Every
// row takes at least one byte, which bounds the count before anything
// is allocated.
func readRows[T any](r *reader, what string, fields func(*T) []any) ([]T, error) {
	n, err := r.uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("%w: %s count %d", ErrBadEncoding, what, n)
	}
	rows := make([]T, n)
	for i := range rows {
		if err := r.fields(fields(&rows[i])); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// AppendCellStats encodes the snapshot payload.
func AppendCellStats(dst []byte, s CellStats) []byte {
	dst = appendFields(dst, s.fields())
	dst = appendRows(dst, s.Durables, (*DurableCounters).fields)
	return appendRows(dst, s.Federation, (*FederationCounters).fields)
}

// DecodeCellStats decodes a snapshot payload. Only the canonical
// encoding is accepted — no padded varints, flags other than 0 and 1,
// out-of-range counts or trailing bytes: re-encoding the result
// reproduces buf.
func DecodeCellStats(buf []byte) (CellStats, error) {
	r := &reader{buf: buf}
	var s CellStats
	err := r.fields(s.fields())
	if err == nil {
		s.Durables, err = readRows(r, "durable", (*DurableCounters).fields)
	}
	if err == nil {
		s.Federation, err = readRows(r, "federation", (*FederationCounters).fields)
	}
	if err != nil {
		return CellStats{}, err
	}
	if !bytes.Equal(AppendCellStats(nil, s), buf) {
		return CellStats{}, fmt.Errorf("%w: cell-stats not canonical", ErrBadEncoding)
	}
	return s, nil
}
