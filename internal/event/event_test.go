package event

import (
	"strings"
	"testing"
)

func TestEventSetGetDelete(t *testing.T) {
	e := New()
	e.SetInt("a", 1).SetStr("b", "x").Set("c", Bool(true)).SetFloat("d", 2.5)
	if e.Len() != 4 {
		t.Fatalf("Len = %d, want 4", e.Len())
	}
	if v, ok := e.Get("a"); !ok || !v.Equal(Int(1)) {
		t.Errorf("a = %v, %v", v, ok)
	}
	if !e.Has("b") {
		t.Error("missing b")
	}
	e.delete("b")
	if e.Has("b") {
		t.Error("b survived delete")
	}
	if _, ok := e.Get("nope"); ok {
		t.Error("found nonexistent attribute")
	}
}

func TestEventTypeHelper(t *testing.T) {
	e := NewTyped("alarm")
	if e.Type() != "alarm" {
		t.Errorf("Type = %q", e.Type())
	}
	if New().Type() != "" {
		t.Error("empty event has a type")
	}
	e2 := New().SetInt(AttrType, 3)
	if e2.Type() != "" {
		t.Error("non-string type attribute returned as type")
	}
}

func TestNamesSortedAndRangeOrder(t *testing.T) {
	e := New().SetInt("z", 1).SetInt("a", 2).SetInt("m", 3)
	names := e.names()
	want := []string{"a", "m", "z"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	var seen []string
	e.Range(func(name string, v Value) bool {
		seen = append(seen, name)
		return true
	})
	for i, n := range want {
		if seen[i] != n {
			t.Fatalf("Range order = %v, want %v", seen, want)
		}
	}
	// Early stop.
	count := 0
	e.Range(func(string, Value) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("Range did not stop early: %d", count)
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := New().SetBytes("raw", []byte{1, 2, 3}).SetInt("n", 5)
	e.Sender = 42
	e.Seq = 7
	cp := e.Clone()
	if !cp.Equal(e) {
		t.Fatal("clone not equal")
	}
	// Mutating the clone's bytes must not reach the original.
	v, _ := cp.Get("raw")
	b, _ := v.Bytes() // already a copy — mutate the clone via Set instead
	_ = b
	cp.SetInt("n", 6)
	if v, _ := e.Get("n"); !v.Equal(Int(5)) {
		t.Error("clone mutation leaked into original")
	}
}

func TestEqualSemantics(t *testing.T) {
	a := New().SetInt("x", 1)
	a.Sender, a.Seq = 1, 1
	b := New().SetInt("x", 1)
	b.Sender, b.Seq = 1, 1
	if !a.Equal(b) {
		t.Error("identical events unequal")
	}
	b.Seq = 2
	if a.Equal(b) {
		t.Error("different seq equal")
	}
	b.Seq = 1
	b.SetInt("x", 2)
	if a.Equal(b) {
		t.Error("different attrs equal")
	}
	var nilEvent *Event
	if a.Equal(nilEvent) {
		t.Error("event equals nil")
	}
}

func TestValidateLimits(t *testing.T) {
	e := New()
	for i := 0; i < MaxAttrs+1; i++ {
		e.SetInt(attrName(i), int64(i))
	}
	if err := e.Validate(); err == nil {
		t.Error("oversized event validated")
	}

	bad := New().Set("", Int(1))
	if err := bad.Validate(); err == nil {
		t.Error("empty attribute name validated")
	}

	long := New().SetStr("s", strings.Repeat("x", maxStringLen+1))
	if err := long.Validate(); err == nil {
		t.Error("oversized string validated")
	}

	invalid := New().Set("v", Value{})
	if err := invalid.Validate(); err == nil {
		t.Error("invalid value validated")
	}

	ok := New().SetInt("fine", 1)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid event rejected: %v", err)
	}
}

func attrName(i int) string {
	return "attr-" + string(rune('a'+i%26)) + "-" + string(rune('a'+(i/26)%26)) + "-" + string(rune('a'+(i/676)%26))
}

func TestStringRendering(t *testing.T) {
	e := NewTyped("alarm").SetInt("v", 9)
	e.Sender, e.Seq = 3, 4
	s := e.String()
	if !strings.Contains(s, "seq=4") || !strings.Contains(s, `type="alarm"`) {
		t.Errorf("String = %q", s)
	}
}

// delete removes the attribute under name if present.
func (e *Event) delete(name string) {
	i, found := e.search(name)
	if !found {
		return
	}
	if e.spill != nil {
		e.ensureOwned(false)
		s := e.spill.attrs
		copy(s[i:e.n-1], s[i+1:e.n])
		s[e.n-1] = attr{}
		e.spill.attrs = s[:e.n-1]
	} else {
		copy(e.inline[i:e.n-1], e.inline[i+1:e.n])
		e.inline[e.n-1] = attr{}
	}
	e.n--
}

// names returns the attribute names in sorted order. The slice is fresh
// on every call.
func (e *Event) names() []string {
	s := e.attrSlice()
	names := make([]string, len(s))
	for i := range s {
		names[i] = s[i].name
	}
	return names
}
