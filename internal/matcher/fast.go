package matcher

import (
	"slices"
	"sort"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// FastMatcher implements Siena's fast forwarding counting algorithm
// (Carzaniga & Wolf, SIGCOMM 2003) directly over the bus-native event
// types, clustered by access predicate (Fabret et al., SIGMOD 2001).
//
// The index has two levels. At install every filter is filed under one
// access predicate: the one of its hashable equality constraints whose
// partition currently holds the fewest filters. A partition is the
// counting index proper — per-attribute constraint indexes and a
// counter per filter — over the filter's remaining constraints. A
// filter with no equality constraint lives in the root partition, which
// every event is counted against. A match probes the (attribute, value)
// partitions of the event's own attributes and runs the counting pass
// only inside the partitions it hits, so a filter whose access
// predicate the event does not satisfy costs nothing at all, and inside
// a partition the sorted range indexes still reject a non-matching
// filter without evaluating it.
//
// The matcher is read-mostly — dispatch matches millions of events
// against a subscription set that changes at human/device timescales —
// so the read path is lock-free: a match loads an immutable index
// snapshot through an atomic pointer and runs without taking any
// mutex, exactly like the attribute-name intern table. Shard workers
// on different cores therefore never serialise on a shared read lock
// or bounce its cache line. The shared writer (book) publishes the next
// snapshot, which edit builds copy-on-write: it clones the one
// partition the changed filter is filed in (plus the flat dense slot
// table), so subscription churn costs the size of a partition, not of
// the index.
type FastMatcher struct {
	book[fastIndex, *fastFilter]
	// free lists recyclable dense slots (writer-side, under book.mu).
	free []int32
}

var _ Matcher = (*FastMatcher)(nil)

// fastIndex is one immutable snapshot of the matcher's index. A
// snapshot is built by a writer, published via the book, and
// never mutated afterwards; readers may hold it across an arbitrary
// window (they only ever see a consistent subscription set).
type fastIndex struct {
	// parts maps an access predicate — attribute name, then bound — to
	// the partition of the filters filed under it.
	parts map[string]map[valueKey]*partition
	// root holds the filters with no hashable equality constraint; nil
	// while there are none.
	root *partition
	// dense assigns every installed filter a small integer slot so
	// that matching can count satisfied constraints in a flat array
	// instead of a map (the hot path of the counting algorithm), and
	// holds what a match reports of the filter there: its subscriber.
	// Freed slots are Nil until reused.
	dense []ident.ID
	// empties lists installed filters with no constraints; they never
	// enter a partition (they match everything) and keeping them
	// separate spares a match a scan over every subscriber.
	empties []slot
}

// fastFilter is one installed filter. edit files it once, before it is
// published; it is immutable after that, so snapshots share the nodes.
type fastFilter struct {
	sub ident.ID
	// cs is the filter's constraint list; access indexes the one the
	// filter is filed under, or is -1 for a filter in the root
	// partition.
	cs     []event.Constraint
	access int
	slot   slot
}

// slot is what the counting pass needs of a filter, stored by value in
// every index bucket so that bumping a counter never dereferences the
// filter itself: idx is its dense slot, need the number of constraints
// its partition counts — all of them in the root partition, all but the
// access predicate elsewhere.
type slot struct {
	idx, need int32
}

// partition is the counting index over the constraints its filters
// carry besides their common access predicate. Immutable once
// published; a writer clones the one it changes.
type partition struct {
	// index maps attribute name to the per-operator constraint index.
	index map[string]*attrIndex
	// direct lists the filters whose only constraint is the access
	// predicate: hitting the partition matches them.
	direct []slot
	// size is the number of filters filed here.
	size int
}

// attrIndex indexes the constraints that name one attribute, organised
// by operator class so that matching touches as few constraints as
// possible.
type attrIndex struct {
	// eq maps a hashable value key to the filters with that exact bound.
	eq map[valueKey][]slot
	// ordered holds <,<=,>,>= refs sorted by numeric bound (numeric
	// bounds only; non-numeric ordered constraints fall into linear).
	less    []orderedRef // OpLt, OpLe
	greater []orderedRef // OpGt, OpGe
	// linear holds everything without a sub-linear index: string
	// ops, Ne, and unhashable or non-numeric bounds.
	linear []linearRef
	// exists holds OpExists filters (satisfied by presence alone).
	exists []slot
}

type orderedRef struct {
	bound float64
	incl  bool // bound satisfies the constraint (Le/Ge)
	slot  slot
}

// linearRef ties a constraint that must be evaluated back to its
// filter's slot; c points into that filter's cs.
type linearRef struct {
	c    *event.Constraint
	slot slot
}

// valueKey is a hashable projection of a Value for equality indexing:
// two values have the same key exactly when they are equal for
// matching.
type valueKey struct {
	// t is TypeFloat for both numeric types, which compare by magnitude
	// (Int(1) equals Float(1)).
	t event.Type
	n float64 // the magnitude; 0 or 1 for a bool
	s string
}

// keyOf projects a constraint bound or an event value onto its
// equality-index key. Bytes are not hashable cheaply, and NaN is no map
// key at all — it equals nothing, itself included, so a partition filed
// under it could never be found again to be removed: both report false,
// and such a bound is neither an access predicate nor indexed.
func keyOf(v event.Value) (valueKey, bool) {
	switch v.Type() {
	case event.TypeInt:
		i, _ := v.Int()
		return valueKey{t: event.TypeFloat, n: float64(i)}, true
	case event.TypeFloat:
		f, _ := v.Float()
		return valueKey{t: event.TypeFloat, n: f}, f == f
	case event.TypeString:
		s, _ := v.Str()
		return valueKey{t: event.TypeString, s: s}, true
	case event.TypeBool:
		k := valueKey{t: event.TypeBool}
		if b, _ := v.Bool(); b {
			k.n = 1
		}
		return k, true
	default:
		return valueKey{}, false
	}
}

// NewFast returns an empty FastMatcher.
func NewFast() *FastMatcher {
	m := &FastMatcher{}
	m.init(func(sub ident.ID, f *event.Filter) (*fastFilter, error) {
		return &fastFilter{sub: sub, cs: f.Constraints()}, nil
	}, m.edit)
	return m
}

// Name implements Matcher.
func (m *FastMatcher) Name() string { return string(KindFast) }

// fastDelta is the next snapshot while a writer builds it. It starts as
// a copy of the published one that shares every value map and
// partition; partitionFor copies the ones a change touches, once, and
// own remembers which already belong to this delta — everything
// reachable from the published snapshot stays frozen.
type fastDelta struct {
	*fastIndex
	own map[interface{}]bool // *partition, or attribute name for its value map
}

func newDelta(cur *fastIndex) *fastDelta {
	return &fastDelta{
		fastIndex: &fastIndex{
			parts:   copyMap(cur.parts),
			root:    cur.root,
			dense:   slices.Clone(cur.dense),
			empties: slices.Clone(cur.empties),
		},
		own: make(map[interface{}]bool, 2),
	}
}

// copyMap returns a shallow copy of m, never nil, with room for one
// more entry.
func copyMap[K comparable, V any](m map[K]V) map[K]V {
	c := make(map[K]V, len(m)+1)
	for k, v := range m {
		c[k] = v
	}
	return c
}

// accessFor picks the filter's access predicate: among its hashable
// equality constraints, the one whose partition is smallest now. It
// returns -1 when the filter has none.
func (idx *fastIndex) accessFor(cs []event.Constraint) int {
	best, bestSize := -1, 0
	for i := range cs {
		if cs[i].Op != event.OpEq {
			continue
		}
		k, ok := keyOf(cs[i].Value)
		if !ok {
			continue
		}
		size := 0
		if p := idx.parts[cs[i].Name][k]; p != nil {
			size = p.size
		}
		if best < 0 || size < bestSize {
			best, bestSize = i, size
		}
	}
	return best
}

// partitionFor returns the partition ff is filed in, private to the
// delta and so free to mutate; a partition that does not exist yet is
// created.
func (d *fastDelta) partitionFor(ff *fastFilter) *partition {
	own := func(p *partition) *partition {
		switch {
		case p == nil:
			p = &partition{index: make(map[string]*attrIndex)}
		case !d.own[p]:
			p = p.clone()
		}
		d.own[p] = true
		return p
	}
	if ff.access < 0 {
		d.root = own(d.root)
		return d.root
	}
	c := &ff.cs[ff.access]
	k, _ := keyOf(c.Value)
	byVal := d.parts[c.Name]
	if !d.own[c.Name] {
		byVal = copyMap(byVal)
		d.parts[c.Name] = byVal
		d.own[c.Name] = true
	}
	p := own(byVal[k])
	byVal[k] = p
	return p
}

// install files ff in the delta.
func (d *fastDelta) install(ff *fastFilter) {
	d.dense[ff.slot.idx] = ff.sub
	if len(ff.cs) == 0 {
		d.empties = append(d.empties, ff.slot)
		return
	}
	d.partitionFor(ff).add(ff)
}

// remove detaches ff from the delta, dropping a partition it leaves
// empty. The caller returns the dense slot to the writer-side free list.
func (d *fastDelta) remove(ff *fastFilter) {
	d.dense[ff.slot.idx] = ident.Nil
	if len(ff.cs) == 0 {
		d.empties = dropSlot(d.empties, ff.slot)
		return
	}
	p := d.partitionFor(ff)
	p.remove(ff)
	if p.size > 0 {
		return
	}
	if ff.access < 0 {
		d.root = nil
		return
	}
	c := &ff.cs[ff.access]
	k, _ := keyOf(c.Value)
	delete(d.parts[c.Name], k)
	if len(d.parts[c.Name]) == 0 {
		delete(d.parts, c.Name)
	}
}

// edit is the engine's copy-on-write step: removed filters give their
// dense slots back to the free list, and each added filter gets its
// access predicate, chosen against the delta, and a dense slot.
func (m *FastMatcher) edit(cur *fastIndex, added, removed []*fastFilter) *fastIndex {
	next := newDelta(cur)
	for _, ff := range removed {
		next.remove(ff)
		m.free = append(m.free, ff.slot.idx)
	}
	for _, ff := range added {
		ff.access = next.accessFor(ff.cs)
		ff.slot.need = int32(len(ff.cs))
		if ff.access >= 0 {
			ff.slot.need--
		}
		if n := len(m.free); n > 0 {
			ff.slot.idx = m.free[n-1]
			m.free = m.free[:n-1]
		} else {
			ff.slot.idx = int32(len(next.dense))
			next.dense = append(next.dense, ident.Nil)
		}
		next.install(ff)
	}
	return next.fastIndex
}

// clone deep-copies the partition.
func (p *partition) clone() *partition {
	c := &partition{
		index:  make(map[string]*attrIndex, len(p.index)),
		direct: slices.Clone(p.direct),
		size:   p.size,
	}
	for name, ai := range p.index {
		ci := &attrIndex{
			less:    slices.Clone(ai.less),
			greater: slices.Clone(ai.greater),
			linear:  slices.Clone(ai.linear),
			exists:  slices.Clone(ai.exists),
		}
		if len(ai.eq) > 0 {
			ci.eq = make(map[valueKey][]slot, len(ai.eq))
			for k, ss := range ai.eq {
				ci.eq[k] = slices.Clone(ss)
			}
		}
		c.index[name] = ci
	}
	return c
}

// add files ff's counted constraints — all but its access predicate —
// in the partition.
func (p *partition) add(ff *fastFilter) {
	p.size++
	if ff.slot.need == 0 {
		p.direct = append(p.direct, ff.slot)
		return
	}
	for i := range ff.cs {
		if i == ff.access {
			continue
		}
		c := &ff.cs[i]
		ai := p.index[c.Name]
		if ai == nil {
			ai = &attrIndex{}
			p.index[c.Name] = ai
		}
		ai.add(c, ff.slot)
	}
}

// remove is the inverse of add.
func (p *partition) remove(ff *fastFilter) {
	p.size--
	if ff.slot.need == 0 {
		p.direct = dropSlot(p.direct, ff.slot)
		return
	}
	for i := range ff.cs {
		if i == ff.access {
			continue
		}
		c := &ff.cs[i]
		ai := p.index[c.Name]
		if ai == nil {
			continue // emptied by an earlier constraint on the same attribute
		}
		ai.remove(ff.slot)
		if len(ai.eq) == 0 && len(ai.less) == 0 && len(ai.greater) == 0 &&
			len(ai.linear) == 0 && len(ai.exists) == 0 {
			delete(p.index, c.Name)
		}
	}
}

func (ai *attrIndex) add(c *event.Constraint, sl slot) {
	switch c.Op {
	case event.OpEq:
		if k, ok := keyOf(c.Value); ok {
			if ai.eq == nil {
				ai.eq = make(map[valueKey][]slot)
			}
			ai.eq[k] = append(ai.eq[k], sl)
			return
		}
	case event.OpExists:
		ai.exists = append(ai.exists, sl)
		return
	case event.OpLt, event.OpLe:
		if bound, ok := valueAsNumeric(c.Value); ok {
			ai.less = insertOrdered(ai.less, orderedRef{bound: bound, incl: c.Op == event.OpLe, slot: sl})
			return
		}
	case event.OpGt, event.OpGe:
		if bound, ok := valueAsNumeric(c.Value); ok {
			ai.greater = insertOrdered(ai.greater, orderedRef{bound: bound, incl: c.Op == event.OpGe, slot: sl})
			return
		}
	}
	ai.linear = append(ai.linear, linearRef{c: c, slot: sl})
}

// remove drops every reference to the slot from the index.
func (ai *attrIndex) remove(sl slot) {
	for k, ss := range ai.eq {
		if ss = dropSlot(ss, sl); len(ss) > 0 {
			ai.eq[k] = ss
		} else {
			delete(ai.eq, k)
		}
	}
	ai.exists = dropSlot(ai.exists, sl)
	ai.less = slices.DeleteFunc(ai.less, func(r orderedRef) bool { return r.slot == sl })
	ai.greater = slices.DeleteFunc(ai.greater, func(r orderedRef) bool { return r.slot == sl })
	ai.linear = slices.DeleteFunc(ai.linear, func(r linearRef) bool { return r.slot == sl })
}

func dropSlot(s []slot, sl slot) []slot {
	return slices.DeleteFunc(s, func(have slot) bool { return have == sl })
}

func insertOrdered(s []orderedRef, r orderedRef) []orderedRef {
	i := sort.Search(len(s), func(i int) bool { return s[i].bound >= r.bound })
	return slices.Insert(s, i, r)
}

// MatchAppendScratch implements Matcher: the event's attributes
// are probed against the access predicates, and the counting pass —
// one walk over the event's attributes, bumping a counter per touched
// filter; a filter whose every counted constraint is satisfied matches
// — runs inside the root partition and each partition hit. Empty
// filters match everything. The entire match runs against one
// immutable index snapshot loaded through an atomic pointer — no lock
// is taken, so concurrent matches on different cores share nothing but
// read-only memory and scale with cores. Counters, the matched list and
// the dedup set live in the caller's epoch-stamped scratch so the hot
// path performs no per-match allocation; a filter is filed in exactly
// one partition, so one epoch serves the whole match.
func (m *FastMatcher) MatchAppendScratch(e *event.Event, dst []ident.ID, sc *Scratch) []ident.ID {
	idx := m.snap.Load()
	sc.begin(len(idx.dense))

	if idx.root != nil {
		idx.root.count(e, sc)
	}
	for ei, en := 0, e.Len(); ei < en; ei++ {
		name, v := e.At(ei)
		byVal, ok := idx.parts[name]
		if !ok {
			continue
		}
		if k, ok := keyOf(v); ok {
			if p := byVal[k]; p != nil {
				sc.matched = append(sc.matched, p.direct...)
				if len(p.index) > 0 {
					p.count(e, sc)
				}
			}
		}
	}
	// Empty filters never enter a partition; they match all.
	sc.matched = append(sc.matched, idx.empties...)

	for _, sl := range sc.matched {
		sub := idx.dense[sl.idx]
		if _, dup := sc.seen[sub]; !dup {
			sc.seen[sub] = struct{}{}
			dst = append(dst, sub)
		}
	}
	for id := range sc.seen {
		delete(sc.seen, id)
	}
	sc.matched = sc.matched[:0]
	return dst
}

// count is the counting pass over one partition: one walk over the
// event's attributes via the index accessors — no closure, no
// name-slice materialisation (the inline event representation stores
// attributes sorted, so At is a direct array read).
func (p *partition) count(e *event.Event, sc *Scratch) {
	for ei, en := 0, e.Len(); ei < en; ei++ {
		name, v := e.At(ei)
		ai, ok := p.index[name]
		if !ok {
			continue
		}
		for _, sl := range ai.exists {
			sc.bump(sl)
		}
		if len(ai.eq) > 0 {
			if k, ok := keyOf(v); ok {
				for _, sl := range ai.eq[k] {
					sc.bump(sl)
				}
			}
		}
		if n, ok := valueAsNumeric(v); ok && len(ai.less)+len(ai.greater) > 0 {
			// less: satisfied when n < bound (or <= for incl).
			i := sort.Search(len(ai.less), func(i int) bool {
				return ai.less[i].bound >= n
			})
			for ; i < len(ai.less); i++ {
				r := &ai.less[i]
				if n < r.bound || (r.incl && n == r.bound) {
					sc.bump(r.slot)
				}
			}
			// greater: satisfied when n > bound (or >= for incl).
			j := sort.Search(len(ai.greater), func(i int) bool {
				return ai.greater[i].bound > n
			})
			for k := 0; k < j; k++ {
				r := &ai.greater[k]
				if n > r.bound || (r.incl && n == r.bound) {
					sc.bump(r.slot)
				}
			}
		}
		for i := range ai.linear {
			if r := &ai.linear[i]; r.c.MatchValue(v) {
				sc.bump(r.slot)
			}
		}
	}
}

// valueAsNumeric mirrors the event package's numeric projection (ints
// and floats compare by magnitude) without exporting its internals.
func valueAsNumeric(v event.Value) (float64, bool) {
	if f, ok := v.Float(); ok {
		return f, true
	}
	if i, ok := v.Int(); ok {
		return float64(i), true
	}
	return 0, false
}
