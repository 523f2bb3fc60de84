package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// CellStats is the management-plane snapshot of one cell, answered to
// a PktStatsRequest with a PktStatsSnapshot: the cell's name and its
// counters as name/value pairs. Nothing here knows a counter: Add
// derives the names from the layers' own Stats structs, so a field
// added to one reaches the wire (and smctap -stats) by itself.
type CellStats struct {
	Cell  string
	Stats []Stat
}

// Stat is one named value. Names are <layer>.<snake_field>, with a
// row between the two for per-row tables (reliable.bus.sent,
// durable.<consumer>.lag); a bool travels as 0 or 1.
type Stat struct {
	Name  string
	Value uint64
}

// Add appends every exported uint64 and bool field of the struct v (or
// *v) as prefix.<snake_field>; other fields are skipped.
func (s *CellStats) Add(prefix string, v any) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	for i := 0; i < rv.NumField(); i++ {
		f, fv := rv.Type().Field(i), rv.Field(i)
		var x uint64
		switch {
		case !f.IsExported() || fv.Kind() != reflect.Uint64 && fv.Kind() != reflect.Bool:
			continue
		case fv.Kind() == reflect.Uint64:
			x = fv.Uint()
		case fv.Bool():
			x = 1
		}
		s.Stats = append(s.Stats, Stat{prefix + "." + snake(f.Name), x})
	}
}

// Get returns the named value of a decoded (sorted) snapshot.
func (s CellStats) Get(name string) (uint64, bool) {
	i, ok := slices.BinarySearchFunc(s.Stats, name, func(st Stat, n string) int { return strings.Compare(st.Name, n) })
	if !ok {
		return 0, false
	}
	return s.Stats[i].Value, true
}

// snake turns a Go field name into its stat name: DurableParks is
// durable_parks, an initialism stays one word (URLPath is url_path).
func snake(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			prevLower := i > 0 && !('A' <= name[i-1] && name[i-1] <= 'Z')
			nextLower := i+1 < len(name) && 'a' <= name[i+1] && name[i+1] <= 'z'
			if i > 0 && (prevLower || nextLower) {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}

// AppendCellStats encodes the snapshot payload: the cell name, the
// pair count, then each pair (name, uvarint value) in ascending name
// order. Of pairs sharing a name only the first added is encoded.
func AppendCellStats(dst []byte, s CellStats) []byte {
	pairs := slices.Clone(s.Stats)
	slices.SortStableFunc(pairs, func(a, b Stat) int { return strings.Compare(a.Name, b.Name) })
	pairs = slices.CompactFunc(pairs, func(a, b Stat) bool { return a.Name == b.Name })
	dst = appendString(dst, s.Cell)
	dst = appendUvarint(dst, uint64(len(pairs)))
	for _, p := range pairs {
		dst = appendUvarint(appendString(dst, p.Name), p.Value)
	}
	return dst
}

// DecodeCellStats decodes a snapshot payload. Only the canonical
// encoding is accepted — strictly ascending names, minimal varints and
// no trailing bytes: re-encoding the result reproduces buf.
func DecodeCellStats(buf []byte) (_ CellStats, err error) {
	r := &reader{buf: buf}
	var s CellStats
	var n uint64
	s.Cell, err = r.string()
	if err == nil {
		n, err = r.uvarint()
	}
	if err != nil {
		return CellStats{}, err
	}
	// A pair takes at least two bytes, which bounds the count before
	// anything is allocated.
	if n > uint64(r.remaining()/2) {
		return CellStats{}, fmt.Errorf("%w: cell-stats count %d", errBadEncoding, n)
	}
	if n > 0 {
		s.Stats = make([]Stat, n)
	}
	for i := range s.Stats {
		p := &s.Stats[i]
		if p.Name, err = r.string(); err == nil {
			p.Value, err = r.uvarint()
		}
		if err != nil {
			return CellStats{}, err
		}
		if i > 0 && p.Name <= s.Stats[i-1].Name {
			return CellStats{}, fmt.Errorf("%w: cell-stats name %q out of order", errBadEncoding, p.Name)
		}
	}
	if !bytes.Equal(AppendCellStats(nil, s), buf) {
		return CellStats{}, fmt.Errorf("%w: cell-stats not canonical", errBadEncoding)
	}
	return s, nil
}
