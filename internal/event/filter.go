package event

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Op is a constraint operator applied to one attribute.
type Op int

// Constraint operators. OpExists matches any value under the name;
// string operators apply to string and bytes values only.
const (
	opInvalid Op = iota
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpPrefix
	OpSuffix
	OpContains
	OpExists
)

// String returns the operator's source-level spelling.
func (op Op) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpPrefix:
		return "prefix"
	case OpSuffix:
		return "suffix"
	case OpContains:
		return "contains"
	case OpExists:
		return "exists"
	default:
		return "invalid"
	}
}

// ParseOp decodes the String form of an operator.
func ParseOp(s string) (Op, error) {
	switch s {
	case "=", "==":
		return OpEq, nil
	case "!=":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	case "prefix":
		return OpPrefix, nil
	case "suffix":
		return OpSuffix, nil
	case "contains":
		return OpContains, nil
	case "exists":
		return OpExists, nil
	default:
		return opInvalid, fmt.Errorf("event: unknown operator %q", s)
	}
}

// ErrBadFilter reports a structurally invalid filter.
var ErrBadFilter = errors.New("event: bad filter")

// Constraint restricts one attribute: name op value. For OpExists the
// value is ignored.
type Constraint struct {
	Name  string
	Op    Op
	Value Value
}

// MatchValue reports whether a single value satisfies the constraint.
// The receiver is a pointer so the per-constraint calls of the match
// loops do not copy the 80-byte struct.
func (c *Constraint) MatchValue(v Value) bool {
	switch c.Op {
	case OpExists:
		return v.isValid()
	case OpEq:
		return equalForMatch(v, c.Value)
	case OpNe:
		// Ne is only meaningful across comparable kinds; an event
		// carrying a different kind does not satisfy != (Siena
		// semantics: constraints are typed).
		if !sameKind(v, c.Value) {
			return false
		}
		return !equalForMatch(v, c.Value)
	case OpLt, OpLe, OpGt, OpGe:
		cmp, err := v.compare(c.Value)
		if err != nil {
			return false
		}
		switch c.Op {
		case OpLt:
			return cmp < 0
		case OpLe:
			return cmp <= 0
		case OpGt:
			return cmp > 0
		default:
			return cmp >= 0
		}
	case OpPrefix, OpSuffix, OpContains:
		s, ok := stringable(v)
		if !ok {
			return false
		}
		pat, ok := stringable(c.Value)
		if !ok {
			return false
		}
		switch c.Op {
		case OpPrefix:
			return strings.HasPrefix(s, pat)
		case OpSuffix:
			return strings.HasSuffix(s, pat)
		default:
			return strings.Contains(s, pat)
		}
	default:
		return false
	}
}

// equalForMatch implements matching equality: numeric values compare by
// magnitude across int/float, everything else by strict equality.
func equalForMatch(a, b Value) bool {
	if an, ok := a.numeric(); ok {
		if bn, ok2 := b.numeric(); ok2 {
			return an == bn
		}
		return false
	}
	return a.Equal(b)
}

// sameKind reports whether two values belong to the same comparison
// family (numeric, string-like, bool).
func sameKind(a, b Value) bool {
	fam := func(t Type) int {
		switch t {
		case TypeInt, TypeFloat:
			return 1
		case TypeString, TypeBytes:
			return 2
		case TypeBool:
			return 3
		default:
			return 0
		}
	}
	fa, fb := fam(a.typ), fam(b.typ)
	return fa != 0 && fa == fb
}

func stringable(v Value) (string, bool) {
	switch v.typ {
	case TypeString:
		return v.str, true
	case TypeBytes:
		return string(v.raw), true
	default:
		return "", false
	}
}

// Validate checks structural validity of the constraint.
func (c Constraint) Validate() error {
	if err := validateName(c.Name); err != nil {
		return err
	}
	if c.Op <= opInvalid || c.Op > OpExists {
		return fmt.Errorf("%w: invalid op on %q", ErrBadFilter, c.Name)
	}
	if c.Op != OpExists {
		if err := validateValue(c.Value); err != nil {
			return err
		}
	}
	// NaN orders with nothing: as a range bound it matches no event,
	// and the matchers' sorted range indexes lose their order around it.
	switch c.Op {
	case OpLt, OpLe, OpGt, OpGe:
		if f, ok := c.Value.Float(); ok && math.IsNaN(f) {
			return fmt.Errorf("%w: NaN bound on %q %s", ErrBadFilter, c.Name, c.Op)
		}
	}
	return nil
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.Op == OpExists {
		return fmt.Sprintf("%s exists", c.Name)
	}
	return fmt.Sprintf("%s %s %s", c.Name, c.Op, c.Value)
}

// Filter is a conjunction of constraints: an event matches when every
// constraint is satisfied by the attribute of the same name. An empty
// filter matches every event (used by core services that audit all
// traffic).
type Filter struct {
	constraints []Constraint
}

// NewFilter builds a filter from constraints. The slice is copied.
func NewFilter(cs ...Constraint) *Filter {
	f := &Filter{constraints: make([]Constraint, len(cs))}
	copy(f.constraints, cs)
	f.normalize()
	return f
}

// Where appends a constraint and returns the filter for chaining.
func (f *Filter) Where(name string, op Op, v Value) *Filter {
	f.constraints = append(f.constraints, Constraint{Name: name, Op: op, Value: v})
	f.normalize()
	return f
}

// WhereType is shorthand for an equality constraint on the "type"
// attribute.
func (f *Filter) WhereType(class string) *Filter {
	return f.Where(AttrType, OpEq, Str(class))
}

// normalize keeps constraints sorted by name then op for deterministic
// encoding and comparison.
func (f *Filter) normalize() {
	sort.SliceStable(f.constraints, func(i, j int) bool {
		a, b := f.constraints[i], f.constraints[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Op < b.Op
	})
}

// Constraints returns a copy of the constraint list.
func (f *Filter) Constraints() []Constraint {
	out := make([]Constraint, len(f.constraints))
	copy(out, f.constraints)
	return out
}

// Len reports the number of constraints.
func (f *Filter) Len() int { return len(f.constraints) }

// Matches reports whether the event satisfies every constraint.
func (f *Filter) Matches(e *Event) bool {
	for i := range f.constraints {
		c := &f.constraints[i]
		v, ok := e.Get(c.Name)
		if c.Op == OpExists {
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

// Validate checks every constraint and the filter size limits.
func (f *Filter) Validate() error {
	if len(f.constraints) > MaxAttrs {
		return fmt.Errorf("%w: %d constraints", ErrBadFilter, len(f.constraints))
	}
	for i := range f.constraints {
		if err := f.constraints[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Equal reports whether two filters have identical constraint lists.
func (f *Filter) Equal(o *Filter) bool {
	if f == nil || o == nil {
		return f == o
	}
	if len(f.constraints) != len(o.constraints) {
		return false
	}
	for i := range f.constraints {
		c, oc := &f.constraints[i], &o.constraints[i]
		if c.Name != oc.Name || c.Op != oc.Op || !c.Value.Equal(oc.Value) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the filter.
func (f *Filter) Clone() *Filter {
	return NewFilter(f.constraints...)
}

// String renders the filter.
func (f *Filter) String() string {
	if len(f.constraints) == 0 {
		return "filter{*}"
	}
	parts := make([]string, len(f.constraints))
	for i, c := range f.constraints {
		parts[i] = c.String()
	}
	return "filter{" + strings.Join(parts, " && ") + "}"
}
