package event

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/amuse/smc/internal/ident"
)

// Well-known attribute names used by SMC core services. Application
// events are free to use any other names.
const (
	// AttrType carries the event class ("new-member", "alarm", ...).
	AttrType = "type"
	// AttrMember carries the member ID in discovery events.
	AttrMember = "member"
	// AttrDeviceType carries the device class in discovery events so
	// that the bootstrap service can choose a proxy type (§III-C).
	AttrDeviceType = "device-type"
)

// Event classes published by the core services.
const (
	TypeNewMember   = "new-member"
	TypePurgeMember = "purge-member"
	TypeAlarm       = "alarm"
)

// Limits on event structure, keeping the memory footprint bounded for
// the constrained target platform (§II-C).
const (
	MaxAttrs     = 64
	maxNameLen   = 255
	maxStringLen = 64 * 1024
	maxBytesLen  = 64 * 1024
)

// InlineAttrs is the number of attributes an Event stores inline in its
// own struct, with no separate heap allocation. The paper's workloads
// (§II-C) are dominated by small sensor readings; events beyond this
// size spill to a shared, copy-on-write heap slice up to MaxAttrs.
const InlineAttrs = 8

var (
	// errTooManyAttrs reports an event exceeding MaxAttrs.
	errTooManyAttrs = errors.New("event: too many attributes")
	// errBadName reports an empty or over-long attribute name.
	errBadName = errors.New("event: bad attribute name")
	// errBadValue reports an invalid or over-long attribute value.
	errBadValue = errors.New("event: bad attribute value")
)

// attr is one named attribute. Events keep attrs sorted by name, so
// lookups are binary searches and iteration order is deterministic
// without sorting on every encode.
type attr struct {
	name string
	val  Value
}

// spillStore holds the attributes of an event that outgrew the inline
// array. The store is shared between an event and its clones
// (copy-on-write): refs counts the events referencing it, and a
// mutation through an event that is not the sole owner copies first.
// refs is manipulated atomically so that concurrent Clones of one
// shared, immutable event (the bus's zero-copy fan-out) are safe.
type spillStore struct {
	refs  atomic.Int32
	attrs []attr
}

// Event is a set of named, typed attributes plus delivery metadata.
// Attributes are stored inline, sorted by name: the common small event
// (≤ InlineAttrs attributes) costs a single allocation for the Event
// itself — or none at all when taken from the Pool — and larger events
// spill to a copy-on-write heap slice. Events are value-like: Clone
// before mutation when sharing.
type Event struct {
	// Sender identifies the publishing service.
	Sender ident.ID
	// Seq is the publisher-assigned sequence number used for
	// per-sender FIFO ordering and duplicate suppression (§II-C).
	Seq uint64
	// Stamp is the publish time (informational; ordering never
	// depends on clocks).
	Stamp time.Time
	// Cursor is the durable-log position of a replayed delivery, set
	// by the bus's durable walker on events it decodes from the log.
	// Zero on live (non-durable) events — cursors start at 1 — and
	// never part of the wire event encoding: it travels only in the
	// PktEventDurable framing.
	Cursor uint64

	n      int               // attribute count
	inline [InlineAttrs]attr // storage while n <= InlineAttrs and spill == nil
	spill  *spillStore       // storage once spilled; inline is then unused

	// pooled/refs implement the recycled-event lifecycle (see pool.go).
	// refs is a plain int32 updated with sync/atomic so that Event
	// stays copyable (Clone copies the struct).
	pooled bool
	refs   int32

	// borrowed/backing implement the borrow-from-packet decode: the
	// attribute names and string/bytes payloads of a borrowed event
	// alias an external buffer (a pooled inbound packet's payload)
	// instead of owning copies. backing, when non-nil, holds the
	// reference that keeps that buffer alive; it is released when the
	// event's storage is reclaimed. Clone promotes borrowed strings to
	// owned copies, so a clone never depends on the backing buffer.
	borrowed bool
	backing  Backing
}

// Backing is the lifetime handle of a buffer a borrowed event's
// strings alias. wire.Packet implements it.
type Backing interface{ Release() }

// New returns an empty event.
func New() *Event { return &Event{} }

// NewTyped returns an event whose "type" attribute is set to class.
func NewTyped(class string) *Event {
	e := New()
	e.Set(AttrType, Str(class))
	return e
}

// attrs returns the live attribute slice (read-only use).
func (e *Event) attrSlice() []attr {
	if e.spill != nil {
		return e.spill.attrs[:e.n]
	}
	return e.inline[:e.n]
}

// search returns the insertion index for name and whether an attribute
// with that exact name is already present (binary search).
func (e *Event) search(name string) (int, bool) {
	s := e.attrSlice()
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo].name == name
}

// ensureOwned makes the event the sole owner of writable attribute
// storage with room for at least one more attribute, copying a shared
// or full spill store as needed (copy-on-write).
func (e *Event) ensureOwned(grow bool) {
	if e.spill == nil {
		return
	}
	need := e.n
	if grow {
		need++
	}
	if e.spill.refs.Load() == 1 && cap(e.spill.attrs) >= need {
		return
	}
	ns := &spillStore{attrs: make([]attr, e.n, spillCap(need))}
	ns.refs.Store(1)
	copy(ns.attrs, e.spill.attrs[:e.n])
	e.dropSpill()
	e.spill = ns
}

// spillCap picks the capacity of a fresh spill store.
func spillCap(need int) int {
	c := 2 * InlineAttrs
	for c < need {
		c *= 2
	}
	if c > MaxAttrs {
		c = MaxAttrs
	}
	if c < need {
		c = need
	}
	return c
}

// dropSpill releases the event's reference on its spill store.
func (e *Event) dropSpill() {
	if e.spill != nil {
		e.spill.refs.Add(-1)
		e.spill = nil
	}
}

// Set stores an attribute, replacing any previous value under the name.
// It returns the event to allow chaining.
func (e *Event) Set(name string, v Value) *Event {
	i, found := e.search(name)
	if found {
		if e.spill != nil {
			e.ensureOwned(false)
			e.spill.attrs[i].val = v
		} else {
			e.inline[i].val = v
		}
		return e
	}
	e.insert(i, name, v)
	return e
}

// Append appends an attribute whose name sorts strictly after every
// attribute already present, skipping the binary search and the
// insertion shift. It reports false — leaving the event unchanged —
// when the name does not sort last; the caller falls back to Set.
// Decoders producing name-sorted attribute streams (the wire format
// encodes events in sorted order) use it to build events in O(n).
func (e *Event) Append(name string, v Value) bool {
	if e.n > 0 {
		s := e.attrSlice()
		if s[e.n-1].name >= name {
			return false
		}
	}
	e.insert(e.n, name, v)
	return true
}

// insert places an attribute at sorted position i.
func (e *Event) insert(i int, name string, v Value) {
	switch {
	case e.spill == nil && e.n < InlineAttrs:
		copy(e.inline[i+1:e.n+1], e.inline[i:e.n])
		e.inline[i] = attr{name: name, val: v}
	case e.spill == nil:
		// Inline array full: spill to the heap.
		ns := &spillStore{attrs: make([]attr, e.n+1, spillCap(e.n+1))}
		ns.refs.Store(1)
		copy(ns.attrs, e.inline[:i])
		ns.attrs[i] = attr{name: name, val: v}
		copy(ns.attrs[i+1:], e.inline[i:e.n])
		e.spill = ns
	default:
		e.ensureOwned(true)
		e.spill.attrs = append(e.spill.attrs, attr{})
		copy(e.spill.attrs[i+1:], e.spill.attrs[i:e.n])
		e.spill.attrs[i] = attr{name: name, val: v}
	}
	e.n++
}

// SetInt is shorthand for Set(name, Int(v)).
func (e *Event) SetInt(name string, v int64) *Event { return e.Set(name, Int(v)) }

// SetFloat is shorthand for Set(name, Float(v)).
func (e *Event) SetFloat(name string, v float64) *Event { return e.Set(name, Float(v)) }

// SetStr is shorthand for Set(name, Str(v)).
func (e *Event) SetStr(name, v string) *Event { return e.Set(name, Str(v)) }

// SetBytes is shorthand for Set(name, Bytes(v)).
func (e *Event) SetBytes(name string, v []byte) *Event { return e.Set(name, Bytes(v)) }

// Get returns the attribute value under name; the second result reports
// whether it exists. Lookup is a binary search over the sorted
// attribute slice — O(log n) with no hashing.
func (e *Event) Get(name string) (Value, bool) {
	i, found := e.search(name)
	if !found {
		return Value{}, false
	}
	return e.attrSlice()[i].val, true
}

// Has reports whether the event carries an attribute under name.
func (e *Event) Has(name string) bool {
	_, found := e.search(name)
	return found
}

// Len reports the number of attributes.
func (e *Event) Len() int { return e.n }

// At returns the attribute at index i in sorted name order. It is the
// hot-loop accessor: matching, sizing and encoding iterate with
// Len/At instead of closure-based Range, touching no heap and
// materialising no name slice. It panics when i is out of range.
func (e *Event) At(i int) (name string, v Value) {
	if i < 0 || i >= e.n {
		panic("event: At index out of range")
	}
	a := &e.attrSlice()[i]
	return a.name, a.val
}

// Type returns the "type" attribute if it is a string, else "".
func (e *Event) Type() string {
	v, ok := e.Get(AttrType)
	if !ok {
		return ""
	}
	s, _ := v.Str()
	return s
}

// Range calls fn for every attribute in sorted name order; if fn returns
// false the iteration stops. Attributes are stored sorted, so Range
// never sorts or allocates; hot loops should still prefer Len/At,
// which avoid the closure.
func (e *Event) Range(fn func(name string, v Value) bool) {
	s := e.attrSlice()
	for i := range s {
		if !fn(s[i].name, s[i].val) {
			return
		}
	}
}

// Clone returns a copy of the event that may be mutated independently.
// The copy is lazy: inline attributes are copied as part of the struct
// (no extra allocation), a spilled attribute store is shared
// copy-on-write until either event next mutates it, and byte-slice
// values keep sharing their backing arrays (Values are immutable
// through the public API — Bytes copies on read). Cloning a borrowed
// event promotes: every name and string/bytes payload is copied into
// owned memory (well-known names resolve to their interned instance),
// so the clone is valid past the borrowed buffer's release. Clone is
// safe to call concurrently on a shared, read-only event.
func (e *Event) Clone() *Event {
	cp := &Event{
		Sender: e.Sender,
		Seq:    e.Seq,
		Stamp:  e.Stamp,
		Cursor: e.Cursor,
		n:      e.n,
	}
	if e.borrowed {
		// A borrowed event's strings alias a buffer whose lifetime the
		// clone does not share, so the clone owns everything outright
		// (no spill sharing either — the shared store would carry the
		// borrowed strings).
		src := e.attrSlice()
		dst := cp.inline[:]
		if e.n > InlineAttrs {
			ns := &spillStore{attrs: make([]attr, e.n, spillCap(e.n))}
			ns.refs.Store(1)
			cp.spill = ns
			dst = ns.attrs
		}
		for i := range src {
			dst[i] = attr{name: promoteString(src[i].name), val: promoteValue(src[i].val)}
		}
		return cp
	}
	if e.spill != nil {
		e.spill.refs.Add(1)
		cp.spill = e.spill
	} else {
		cp.inline = e.inline
	}
	return cp
}

// promoteString returns an owned copy of s — the shared interned
// instance when s is a well-known string, a fresh copy otherwise.
func promoteString(s string) string {
	if in, ok := lookupInternStr(s); ok {
		return in
	}
	return strings.Clone(s)
}

// promoteValue returns v with any borrowed string/bytes payload copied
// into owned memory.
func promoteValue(v Value) Value {
	switch v.typ {
	case TypeString:
		v.str = promoteString(v.str)
	case TypeBytes:
		if v.raw != nil {
			v.raw = append(make([]byte, 0, len(v.raw)), v.raw...)
		}
	}
	return v
}

// Borrow marks the event's attribute strings as aliasing an external
// buffer and hands the event the reference that keeps the buffer alive
// (r may be nil when the buffer's lifetime is guaranteed some other
// way, e.g. plain garbage-collected memory). It is called by the
// borrowing wire decoder; the backing reference is released when the
// event's storage is reclaimed (the last Release of a pooled event, or
// Clear).
func (e *Event) Borrow(r Backing) {
	e.borrowed = true
	if r != nil {
		if e.backing != nil {
			e.backing.Release()
		}
		e.backing = r
	}
}

// Borrowed reports whether the event's strings alias an external
// buffer. Borrowed data is valid for the event's lifetime; Clone to
// keep attributes past it.
func (e *Event) Borrowed() bool { return e.borrowed }

// Pooled reports whether the event came from Acquire and is
// reference-counted.
func (e *Event) Pooled() bool { return e.pooled }

// releaseBacking drops the borrowed-buffer reference, if any.
func (e *Event) releaseBacking() {
	if e.backing != nil {
		e.backing.Release()
		e.backing = nil
	}
	e.borrowed = false
}

// Clear removes every attribute and releases any borrowed backing
// buffer, leaving an empty event whose metadata (Sender, Seq, Stamp)
// is untouched. Decoders reuse one event across packets with it.
func (e *Event) Clear() {
	e.dropSpill()
	e.inline = [InlineAttrs]attr{}
	e.n = 0
	e.releaseBacking()
}

// Equal reports whether two events carry identical attributes and
// metadata.
func (e *Event) Equal(o *Event) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Sender != o.Sender || e.Seq != o.Seq || e.n != o.n {
		return false
	}
	es, os := e.attrSlice(), o.attrSlice()
	for i := range es {
		if es[i].name != os[i].name || !es[i].val.Equal(os[i].val) {
			return false
		}
	}
	return true
}

// Validate checks the event against the structural limits.
func (e *Event) Validate() error {
	if e.n > MaxAttrs {
		return fmt.Errorf("%w: %d > %d", errTooManyAttrs, e.n, MaxAttrs)
	}
	s := e.attrSlice()
	for i := range s {
		if err := validateName(s[i].name); err != nil {
			return err
		}
		if err := validateValue(s[i].val); err != nil {
			return fmt.Errorf("%w: attribute %q", err, s[i].name)
		}
	}
	return nil
}

func validateName(n string) error {
	if n == "" || len(n) > maxNameLen {
		return fmt.Errorf("%w: %q", errBadName, n)
	}
	return nil
}

func validateValue(v Value) error {
	switch v.typ {
	case TypeString:
		if len(v.str) > maxStringLen {
			return fmt.Errorf("%w: string of %d bytes", errBadValue, len(v.str))
		}
	case TypeBytes:
		if len(v.raw) > maxBytesLen {
			return fmt.Errorf("%w: %d bytes", errBadValue, len(v.raw))
		}
	case typeInvalid:
		return fmt.Errorf("%w: invalid value", errBadValue)
	}
	return nil
}

// String renders the event compactly for logs.
func (e *Event) String() string {
	var sb strings.Builder
	sb.WriteString("event{")
	fmt.Fprintf(&sb, "sender=%s seq=%d", e.Sender, e.Seq)
	e.Range(func(name string, v Value) bool {
		fmt.Fprintf(&sb, " %s=%s", name, v)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
