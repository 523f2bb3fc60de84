package matcher

import (
	"errors"
	"strings"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// typedMatcher implements the type-based publish/subscribe mechanism
// the paper names as intended future work (§VI: "we also intend to
// replace the content-based publish/subscribe mechanism with a
// type-based publish/subscribe mechanism, to remove the reliance on
// arbitrary tags as event identifiers", citing Eugster et al.).
//
// Events are classified by their "type" attribute interpreted as a
// '/'-separated path ("reading/heart-rate"); a subscription to a type
// receives that type and every subtype, mirroring subtype polymorphism
// in type-based pub/sub. Additional constraints in a subscription
// filter are still applied as content guards after the type check —
// the hybrid Eugster et al. describe.
//
// typedMatcher implements the same Matcher interface as the two
// content-based engines, so the bus can host it unchanged. A filter
// installed without a type-equality constraint is rejected: under
// type-based pub/sub the type is the unit of subscription.
//
// Like the other engines the read path is lock-free: the type tree is
// an immutable snapshot the shared writer (book) publishes through an
// atomic pointer, and editTypeTree derives it by path copying — only
// the nodes on each changed subscription's type path (plus shallow
// copies of their child maps) are cloned, everything off-path is
// shared with the previous snapshot.
type typedMatcher struct {
	book[typeNode, *typedSub]
}

var _ Matcher = (*typedMatcher)(nil)

// typeNode is one node of an immutable snapshot: never mutated after
// publication. Writers clone nodes along the changed path.
type typeNode struct {
	children map[string]*typeNode
	// subs are subscriptions rooted exactly here; they match events
	// whose type path passes through this node.
	subs []*typedSub
}

// typedSub is one installed subscription. Immutable; shared between
// snapshots. path retains the parsed type path so writers can re-walk
// it when unsubscribing.
type typedSub struct {
	sub    ident.ID
	guards []event.Constraint
	path   []string
}

// newTypedMatcher returns an empty typedMatcher.
func newTypedMatcher() *typedMatcher {
	m := &typedMatcher{}
	m.init(newTypedSub, editTypeTree)
	return m
}

func newTypeNode() *typeNode {
	return &typeNode{children: make(map[string]*typeNode)}
}

// shallowClone copies the node: fresh children map (same child
// pointers) and a fresh subs slice.
func (n *typeNode) shallowClone() *typeNode {
	c := &typeNode{
		children: make(map[string]*typeNode, len(n.children)),
		subs:     append([]*typedSub(nil), n.subs...),
	}
	for seg, child := range n.children {
		c.children[seg] = child
	}
	return c
}

// Name implements Matcher.
func (m *typedMatcher) Name() string { return string(KindTyped) }

// typePathOf extracts the subscription's type path and residual
// content guards. The first type equality is the path; any later one
// stays a guard, so a filter pinning two different types matches
// nothing, as it does on the content-based engines. ok is false when
// the filter has no type-equality constraint.
func typePathOf(f *event.Filter) (path []string, guards []event.Constraint, ok bool) {
	for _, c := range f.Constraints() {
		if !ok && c.Name == event.AttrType && c.Op == event.OpEq {
			if s, isStr := c.Value.Str(); isStr && s != "" {
				path = splitTypePath(s)
				ok = true
				continue
			}
		}
		guards = append(guards, c)
	}
	return path, guards, ok
}

// newTypedSub is the engine's entry: the filter must pin the event
// type.
func newTypedSub(sub ident.ID, f *event.Filter) (*typedSub, error) {
	path, guards, ok := typePathOf(f)
	if !ok {
		return nil, errUntypedSubscription
	}
	return &typedSub{sub: sub, guards: guards, path: path}, nil
}

func splitTypePath(s string) []string {
	parts := strings.Split(s, "/")
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// clonePath builds the next snapshot by cloning the nodes along path
// from root (creating missing ones) and returns the new root plus the
// cloned node at the end of the path, which the caller may mutate
// before the snapshot is published.
func clonePath(root *typeNode, path []string) (newRoot, at *typeNode) {
	newRoot = root.shallowClone()
	node := newRoot
	for _, seg := range path {
		child, ok := node.children[seg]
		if ok {
			child = child.shallowClone()
		} else {
			child = newTypeNode()
		}
		node.children[seg] = child
		node = child
	}
	return newRoot, node
}

// errUntypedSubscription reports a subscription without a type
// constraint, which type-based pub/sub cannot host.
var errUntypedSubscription = errors.New("matcher: typed engine requires a type-equality constraint")

// editTypeTree builds the next tree with one path copy per changed
// subscription, chained in memory; the book publishes the final root.
func editTypeTree(root *typeNode, added, removed []*typedSub) *typeNode {
	for _, ts := range removed {
		var node *typeNode
		root, node = clonePath(root, ts.path)
		removeTypedSub(node, ts)
	}
	for _, ts := range added {
		var node *typeNode
		root, node = clonePath(root, ts.path)
		node.subs = append(node.subs, ts)
	}
	return root
}

func removeTypedSub(n *typeNode, ts *typedSub) {
	for i, have := range n.subs {
		if have == ts {
			n.subs = append(n.subs[:i], n.subs[i+1:]...)
			return
		}
	}
}

// MatchAppendScratch implements Matcher: walk the event's type
// path from the root of the current snapshot, collecting subscriptions
// at every ancestor (a subscription to "reading" sees
// "reading/heart-rate"), then apply content guards. The walk takes no
// lock — the snapshot is immutable — and the dedup set lives in the
// caller's scratch.
func (m *typedMatcher) MatchAppendScratch(e *event.Event, dst []ident.ID, sc *Scratch) []ident.ID {
	if sc.seen == nil {
		sc.seen = make(map[ident.ID]struct{}, 8)
	}
	seen := sc.seen
	defer func() {
		for id := range seen {
			delete(seen, id)
		}
	}()
	collect := func(n *typeNode) {
		for _, ts := range n.subs {
			if _, dup := seen[ts.sub]; dup {
				continue
			}
			if guardsMatch(ts.guards, e) {
				seen[ts.sub] = struct{}{}
				dst = append(dst, ts.sub)
			}
		}
	}
	node := m.snap.Load()
	collect(node) // subscriptions to the root type ("" = all types)
	// Walk the '/'-separated path by slicing in place (no Split
	// allocation on the match path).
	for s := e.Type(); s != ""; {
		var seg string
		if i := strings.IndexByte(s, '/'); i < 0 {
			seg, s = s, ""
		} else {
			seg, s = s[:i], s[i+1:]
		}
		if seg == "" {
			continue
		}
		child, ok := node.children[seg]
		if !ok {
			return dst
		}
		node = child
		collect(node)
	}
	return dst
}

func guardsMatch(guards []event.Constraint, e *event.Event) bool {
	for i := range guards {
		c := &guards[i]
		v, ok := e.Get(c.Name)
		if c.Op == event.OpExists {
			if !ok {
				return false
			}
			continue
		}
		if !ok || !c.MatchValue(v) {
			return false
		}
	}
	return true
}
