package matcher

import (
	"strings"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// sienaMatcher models the Siena-based prototype of §IV: a general
// pub/sub engine with its own internal attribute model. Every published
// event is translated into that model before matching ("translation to
// or from our own data types", §V — the overhead the paper attributes
// Siena's lower performance to), and filters are translated on
// subscription. Subscriptions are kept in a covering poset, as in
// Siena's server: a filter that is covered by a non-matching ancestor
// is skipped without evaluation.
//
// The read path is lock-free: a match loads an immutable poset
// snapshot through an atomic pointer. The shared writer (book)
// publishes each next snapshot, for which editPoset rebuilds the node
// slice — poset insertion is already O(n) (covering is computed
// against every existing node), so the O(n) clone-and-remap that keeps
// published snapshots immutable does not change Subscribe's complexity
// class. The per-match translation allocations are untouched: they are
// the §V overhead under measurement (TestSienaTranslationAllocsPinned).
type sienaMatcher struct {
	book[sienaIndex, *sienaNode]
}

var _ Matcher = (*sienaMatcher)(nil)

// sienaIndex is one immutable poset snapshot.
type sienaIndex struct {
	nodes []*sienaNode
}

// sienaNode is one poset entry. Within a published snapshot a node is
// immutable; editPoset clones every node (remapping parent edges) when
// the poset changes. Every clone of a node shares its original filter,
// the book's own copy, which therefore identifies the node across
// snapshots.
type sienaNode struct {
	sub      ident.ID
	original *event.Filter
	filter   sienaFilter  // translated form used for evaluation
	parents  []*sienaNode // nodes whose filters cover this one
}

// sienaValue is Siena's generic boxed attribute value. Boxing through
// interface{} is deliberate: it reproduces the allocation and dynamic
// dispatch of a general-purpose engine.
type sienaValue struct {
	kind byte
	data interface{}
}

const (
	sienaInt byte = iota + 1
	sienaFloat
	sienaString
	sienaBool
	sienaBytes
)

// sienaNotification is Siena's internal event form.
type sienaNotification map[string]sienaValue

// sienaConstraint is Siena's internal constraint form.
type sienaConstraint struct {
	name  string
	op    event.Op
	value sienaValue
}

type sienaFilter []sienaConstraint

// newSiena returns an empty sienaMatcher.
func newSiena() *sienaMatcher {
	m := &sienaMatcher{}
	m.init(func(sub ident.ID, f *event.Filter) (*sienaNode, error) {
		return &sienaNode{sub: sub, original: f, filter: translateFilter(f)}, nil
	}, editPoset)
	return m
}

// Name implements Matcher.
func (m *sienaMatcher) Name() string { return string(KindSiena) }

// translateValue boxes a bus-native value into Siena's model. Byte
// slices are copied — the translation boundary owns its data.
func translateValue(v event.Value) sienaValue {
	switch v.Type() {
	case event.TypeInt:
		i, _ := v.Int()
		return sienaValue{kind: sienaInt, data: i}
	case event.TypeFloat:
		f, _ := v.Float()
		return sienaValue{kind: sienaFloat, data: f}
	case event.TypeString:
		s, _ := v.Str()
		// Siena's string attributes are fresh copies.
		return sienaValue{kind: sienaString, data: string(append([]byte(nil), s...))}
	case event.TypeBool:
		b, _ := v.Bool()
		return sienaValue{kind: sienaBool, data: b}
	case event.TypeBytes:
		b, _ := v.Bytes() // Bytes() already copies
		return sienaValue{kind: sienaBytes, data: b}
	default:
		return sienaValue{}
	}
}

// translateEvent converts a bus event into a Siena notification: a
// fresh map with every attribute boxed — the per-event translation cost
// the dedicated matcher avoids. Unlike the other matchers this loop is
// deliberately NOT migrated to the Len/At accessors: its shape and its
// allocations (fresh map, copied names, boxed values, closure
// iteration) are the §V overhead under measurement and are preserved
// verbatim (see TestSienaTranslationAllocsPinned and the ROADMAP
// caveat — do not optimise without splitting flavours).
func translateEvent(e *event.Event) sienaNotification {
	n := make(sienaNotification, e.Len())
	e.Range(func(name string, v event.Value) bool {
		// Attribute names are copied too, as a marshalling boundary
		// would.
		n[string(append([]byte(nil), name...))] = translateValue(v)
		return true
	})
	return n
}

// translateFilter converts a bus filter into Siena's internal form.
func translateFilter(f *event.Filter) sienaFilter {
	cs := f.Constraints()
	sf := make(sienaFilter, 0, len(cs))
	for _, c := range cs {
		sf = append(sf, sienaConstraint{
			name:  c.Name,
			op:    c.Op,
			value: translateValue(c.Value),
		})
	}
	return sf
}

// sienaNumeric projects a boxed value to float64 for comparison.
func sienaNumeric(v sienaValue) (float64, bool) {
	switch v.kind {
	case sienaInt:
		i, ok := v.data.(int64)
		return float64(i), ok
	case sienaFloat:
		f, ok := v.data.(float64)
		return f, ok
	default:
		return 0, false
	}
}

func sienaStringable(v sienaValue) (string, bool) {
	switch v.kind {
	case sienaString:
		s, ok := v.data.(string)
		return s, ok
	case sienaBytes:
		b, ok := v.data.([]byte)
		if !ok {
			return "", false
		}
		return string(b), true
	default:
		return "", false
	}
}

// matchConstraint evaluates one boxed constraint against a boxed value
// using generic type switches — the dynamic-dispatch path of a general
// engine.
func matchConstraint(c sienaConstraint, v sienaValue) bool {
	switch c.op {
	case event.OpExists:
		return v.kind != 0
	case event.OpEq, event.OpNe:
		eq, comparable := sienaEqual(v, c.value)
		if !comparable {
			return false
		}
		if c.op == event.OpEq {
			return eq
		}
		return !eq
	case event.OpLt, event.OpLe, event.OpGt, event.OpGe:
		cmp, ok := sienaCompare(v, c.value)
		if !ok {
			return false
		}
		switch c.op {
		case event.OpLt:
			return cmp < 0
		case event.OpLe:
			return cmp <= 0
		case event.OpGt:
			return cmp > 0
		default:
			return cmp >= 0
		}
	case event.OpPrefix, event.OpSuffix, event.OpContains:
		s, ok1 := sienaStringable(v)
		pat, ok2 := sienaStringable(c.value)
		if !ok1 || !ok2 {
			return false
		}
		switch c.op {
		case event.OpPrefix:
			return strings.HasPrefix(s, pat)
		case event.OpSuffix:
			return strings.HasSuffix(s, pat)
		default:
			return strings.Contains(s, pat)
		}
	default:
		return false
	}
}

func sienaEqual(a, b sienaValue) (eq, comparable bool) {
	if an, ok := sienaNumeric(a); ok {
		bn, ok2 := sienaNumeric(b)
		if !ok2 {
			return false, false
		}
		return an == bn, true
	}
	as, aok := sienaStringable(a)
	if aok {
		bs, bok := sienaStringable(b)
		if !bok {
			return false, false
		}
		// String-like values are comparable as a family (so != is
		// meaningful across string/bytes), but equal only within the
		// same kind — matching event.Constraint semantics exactly.
		return a.kind == b.kind && as == bs, true
	}
	if a.kind == sienaBool && b.kind == sienaBool {
		ab, _ := a.data.(bool)
		bb, _ := b.data.(bool)
		return ab == bb, true
	}
	return false, false
}

func sienaCompare(a, b sienaValue) (int, bool) {
	if an, ok := sienaNumeric(a); ok {
		bn, ok2 := sienaNumeric(b)
		if !ok2 {
			return 0, false
		}
		switch {
		case an < bn:
			return -1, true
		case an > bn:
			return 1, true
		default:
			return 0, true
		}
	}
	as, aok := sienaStringable(a)
	bs, bok := sienaStringable(b)
	if aok && bok && (a.kind == sienaBytes) == (b.kind == sienaBytes) {
		return strings.Compare(as, bs), true
	}
	if a.kind == sienaBool && b.kind == sienaBool {
		ab, _ := a.data.(bool)
		bb, _ := b.data.(bool)
		switch {
		case !ab && bb:
			return -1, true
		case ab && !bb:
			return 1, true
		default:
			return 0, true
		}
	}
	return 0, false
}

// matchFilter evaluates a translated filter against a notification.
func matchFilter(f sienaFilter, n sienaNotification) bool {
	for _, c := range f {
		v, ok := n[c.name]
		if !ok {
			return false
		}
		if c.op != event.OpExists && !matchConstraint(c, v) {
			return false
		}
	}
	return true
}

// editPoset builds the next snapshot: fresh node structs for the
// surviving and the added entries, with parent edges remapped onto the
// clones, then cover edges linked for each added node against every
// other (Siena's O(n) poset insertion). Removed nodes are recognised by
// their original filter, as the entries the book holds are not the
// clones in cur. The translated filters and originals are immutable
// and shared.
func editPoset(cur *sienaIndex, added, removed []*sienaNode) *sienaIndex {
	dead := make(map[*event.Filter]bool, len(removed))
	for _, n := range removed {
		dead[n.original] = true
	}
	remap := make(map[*sienaNode]*sienaNode, len(cur.nodes))
	next := make([]*sienaNode, 0, len(cur.nodes)+len(added))
	for _, n := range cur.nodes {
		if dead[n.original] {
			continue
		}
		c := &sienaNode{sub: n.sub, original: n.original, filter: n.filter}
		remap[n] = c
		next = append(next, c)
	}
	for _, n := range cur.nodes {
		c := remap[n]
		if c == nil {
			continue
		}
		for _, p := range n.parents {
			if np, ok := remap[p]; ok {
				c.parents = append(c.parents, np)
			}
		}
	}
	for _, a := range added {
		node := &sienaNode{sub: a.sub, original: a.original, filter: a.filter}
		f := a.original
		for _, n := range next {
			if n.original.Covers(f) && !f.Covers(n.original) {
				node.parents = append(node.parents, n)
			} else if f.Covers(n.original) && !n.original.Covers(f) {
				n.parents = append(n.parents, node)
			}
		}
		next = append(next, node)
	}
	return &sienaIndex{nodes: next}
}

// MatchAppendScratch implements Matcher: translate the event into
// Siena's model, then evaluate the poset with memoisation (a node
// covered by a non-matching ancestor is skipped). The poset is an
// immutable snapshot loaded through an atomic pointer — no lock on the
// read path. The scratch is deliberately unused: Siena's per-match
// allocations (translation, memo, dedup map) are the §V general-engine
// overhead under measurement and must stay byte-for-byte with the seed
// (TestSienaTranslationAllocsPinned).
func (m *sienaMatcher) MatchAppendScratch(e *event.Event, dst []ident.ID, _ *Scratch) []ident.ID {
	nodes := m.snap.Load().nodes

	notif := translateEvent(e)
	memo := make(map[*sienaNode]bool, len(nodes))
	var eval func(n *sienaNode) bool
	eval = func(n *sienaNode) bool {
		if r, ok := memo[n]; ok {
			return r
		}
		// Guard against accidental cycles (equal filters never link,
		// but stay safe): mark false during evaluation.
		memo[n] = false
		for _, p := range n.parents {
			if !eval(p) {
				return false
			}
		}
		r := matchFilter(n.filter, notif)
		memo[n] = r
		return r
	}

	seen := make(map[ident.ID]bool, 8)
	for _, n := range nodes {
		if eval(n) && !seen[n.sub] {
			seen[n.sub] = true
			dst = append(dst, n.sub)
		}
	}
	return dst
}
