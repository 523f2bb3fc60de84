package event

// Covering relations between constraints and filters, per Siena's
// subscription model (Carzaniga et al., TOCS 2001). A filter F1 covers
// F2 when every event matching F2 also matches F1. The relation is
// conservative: Covers may return false for pairs that do cover, but
// never returns true for pairs that do not. The Siena engine uses covering
// to suppress redundant subscriptions.

// coversConstraint reports (conservatively) whether constraint a covers
// constraint b on the same attribute name.
func coversConstraint(a, b Constraint) bool {
	if a.Name != b.Name {
		return false
	}
	// Exists covers everything on the attribute.
	if a.Op == OpExists {
		return true
	}
	if b.Op == OpExists {
		return false
	}
	switch a.Op {
	case OpEq:
		// a: x = v covers b only when b forces exactly v.
		return b.Op == OpEq && equalForMatch(a.Value, b.Value)
	case OpNe:
		if b.Op == OpNe {
			return equalForMatch(a.Value, b.Value)
		}
		if b.Op == OpEq {
			return sameKind(a.Value, b.Value) && !equalForMatch(a.Value, b.Value)
		}
		return false
	case OpLt, OpLe, OpGt, OpGe:
		return coversRange(a, b)
	case OpPrefix:
		if b.Op != OpPrefix && b.Op != OpEq {
			return false
		}
		as, ok1 := stringable(a.Value)
		bs, ok2 := stringable(b.Value)
		if !ok1 || !ok2 {
			return false
		}
		// prefix "ab" covers prefix "abc" and = "abc...".
		return len(bs) >= len(as) && bs[:len(as)] == as
	case OpSuffix:
		if b.Op != OpSuffix && b.Op != OpEq {
			return false
		}
		as, ok1 := stringable(a.Value)
		bs, ok2 := stringable(b.Value)
		if !ok1 || !ok2 {
			return false
		}
		return len(bs) >= len(as) && bs[len(bs)-len(as):] == as
	case OpContains:
		bs, ok2 := stringable(b.Value)
		as, ok1 := stringable(a.Value)
		if !ok1 || !ok2 {
			return false
		}
		switch b.Op {
		case OpContains, OpEq, OpPrefix, OpSuffix:
			// contains "x" covers any pattern that itself contains "x".
			return contains(bs, as)
		default:
			return false
		}
	default:
		return false
	}
}

func contains(haystack, needle string) bool {
	return len(needle) == 0 || indexOf(haystack, needle) >= 0
}

func indexOf(s, sub string) int {
	n := len(sub)
	if n == 0 {
		return 0
	}
	for i := 0; i+n <= len(s); i++ {
		if s[i:i+n] == sub {
			return i
		}
	}
	return -1
}

// coversRange handles the numeric range operators. It requires numeric
// comparison values on both sides.
func coversRange(a, b Constraint) bool {
	av, aok := a.Value.numeric()
	if !aok {
		// Fall back to comparable same-kind values (strings).
		return coversRangeOrdered(a, b)
	}
	switch b.Op {
	case OpEq:
		bv, ok := b.Value.numeric()
		if !ok {
			return false
		}
		return rangeAdmits(a.Op, av, bv)
	case OpLt, OpLe, OpGt, OpGe:
		bv, ok := b.Value.numeric()
		if !ok {
			return false
		}
		return rangeCoversRange(a.Op, av, b.Op, bv)
	default:
		return false
	}
}

// coversRangeOrdered covers ordered non-numeric kinds via compare. It
// only applies when b is itself a range or equality constraint — any
// other operator (!=, prefix, ...) admits values a range cannot bound.
func coversRangeOrdered(a, b Constraint) bool {
	switch b.Op {
	case OpEq, OpLt, OpLe, OpGt, OpGe:
	default:
		return false
	}
	cmp, err := b.Value.compare(a.Value)
	if err != nil {
		return false
	}
	if b.Op == OpEq {
		switch a.Op {
		case OpLt:
			return cmp < 0
		case OpLe:
			return cmp <= 0
		case OpGt:
			return cmp > 0
		case OpGe:
			return cmp >= 0
		}
		return false
	}
	if sameDirection(a.Op, b.Op) {
		switch a.Op {
		case OpLt:
			return cmp < 0 || (cmp == 0 && b.Op == OpLt)
		case OpLe:
			return cmp <= 0
		case OpGt:
			return cmp > 0 || (cmp == 0 && b.Op == OpGt)
		case OpGe:
			return cmp >= 0
		}
	}
	return false
}

func sameDirection(a, b Op) bool {
	lt := func(op Op) bool { return op == OpLt || op == OpLe }
	return lt(a) == lt(b)
}

// rangeAdmits reports whether value v satisfies `x op bound`.
func rangeAdmits(op Op, bound, v float64) bool {
	switch op {
	case OpLt:
		return v < bound
	case OpLe:
		return v <= bound
	case OpGt:
		return v > bound
	case OpGe:
		return v >= bound
	default:
		return false
	}
}

// rangeCoversRange reports whether `x aop abound` covers `x bop bbound`.
func rangeCoversRange(aop Op, abound float64, bop Op, bbound float64) bool {
	if !sameDirection(aop, bop) {
		return false
	}
	switch aop {
	case OpLt:
		if bop == OpLt {
			return bbound <= abound
		}
		return bbound < abound // b: x<=bb ⊂ a: x<ab iff bb<ab
	case OpLe:
		return bbound <= abound
	case OpGt:
		if bop == OpGt {
			return bbound >= abound
		}
		return bbound > abound
	case OpGe:
		return bbound >= abound
	default:
		return false
	}
}

// Covers reports (conservatively) whether filter f covers filter g:
// every event matching g also matches f. It holds when every constraint
// of f is covered by at least one constraint of g.
func (f *Filter) Covers(g *Filter) bool {
	for _, fc := range f.constraints {
		covered := false
		for _, gc := range g.constraints {
			if coversConstraint(fc, gc) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}
