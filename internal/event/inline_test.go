package event

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestInlineSpillBoundary exercises the representation switch at
// exactly InlineAttrs attributes and up to MaxAttrs: sorted iteration,
// Get/Has/Delete and Len must behave identically on both sides of the
// boundary.
func TestInlineSpillBoundary(t *testing.T) {
	for _, n := range []int{InlineAttrs - 1, InlineAttrs, InlineAttrs + 1, MaxAttrs} {
		t.Run(fmt.Sprintf("attrs=%d", n), func(t *testing.T) {
			e := New()
			want := make(map[string]int64, n)
			// Insert in reverse order so every insert shifts.
			for i := n - 1; i >= 0; i-- {
				name := fmt.Sprintf("k%03d", i)
				e.SetInt(name, int64(i))
				want[name] = int64(i)
			}
			if e.Len() != n {
				t.Fatalf("Len = %d, want %d", e.Len(), n)
			}
			spilled := e.spill != nil
			if wantSpill := n > InlineAttrs; spilled != wantSpill {
				t.Fatalf("spilled = %v at %d attrs, want %v", spilled, n, wantSpill)
			}
			// At iterates in sorted order and agrees with Get.
			prev := ""
			for i := 0; i < e.Len(); i++ {
				name, v := e.At(i)
				if name <= prev {
					t.Fatalf("At order broken: %q after %q", name, prev)
				}
				prev = name
				iv, _ := v.Int()
				if iv != want[name] {
					t.Fatalf("At(%d) = %s=%d, want %d", i, name, iv, want[name])
				}
				if gv, ok := e.Get(name); !ok || !gv.Equal(v) {
					t.Fatalf("Get(%q) disagrees with At", name)
				}
			}
			// Overwrite keeps the count; delete shrinks it.
			e.SetInt("k000", 999)
			if e.Len() != n {
				t.Fatalf("overwrite changed Len to %d", e.Len())
			}
			if v, _ := e.Get("k000"); !v.Equal(Int(999)) {
				t.Fatal("overwrite lost")
			}
			e.delete("k000")
			if e.Len() != n-1 || e.Has("k000") {
				t.Fatal("delete failed")
			}
		})
	}
}

// TestAtPanicsOutOfRange pins the At bounds contract.
func TestAtPanicsOutOfRange(t *testing.T) {
	e := New().SetInt("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("At(1) on a 1-attribute event did not panic")
		}
	}()
	e.At(1)
}

// TestAppendFastPath pins Append: sorted names append without
// searching, an out-of-order or duplicate name is refused unchanged.
func TestAppendFastPath(t *testing.T) {
	e := New()
	for _, name := range []string{"a", "b", "c"} {
		if !e.Append(name, Int(1)) {
			t.Fatalf("Append(%q) refused", name)
		}
	}
	if e.Append("b", Int(2)) {
		t.Fatal("out-of-order Append accepted")
	}
	if e.Append("c", Int(2)) {
		t.Fatal("duplicate Append accepted")
	}
	if e.Len() != 3 {
		t.Fatalf("Len = %d after refused appends", e.Len())
	}
	if v, _ := e.Get("c"); !v.Equal(Int(1)) {
		t.Fatal("refused Append mutated the event")
	}
}

// TestCloneLazyInline pins the lazy clone for small events: cloning an
// inline event allocates only the Event struct itself (the attribute
// storage rides inside it) and byte values share backing arrays.
func TestCloneLazyInline(t *testing.T) {
	e := New().SetBytes("raw", []byte{1, 2, 3}).SetInt("n", 5)
	allocs := testing.AllocsPerRun(100, func() {
		cp := e.Clone()
		_ = cp
	})
	if allocs > 1 {
		t.Fatalf("inline Clone allocates %.1f objects, want ≤ 1 (the struct)", allocs)
	}
}

// TestCloneLazySpill pins copy-on-write for spilled events: the clone
// shares the attribute store (O(1) clone regardless of size) until one
// side writes, and writes never leak across.
func TestCloneLazySpill(t *testing.T) {
	spilled := func() *Event {
		e := New()
		for i := 0; i < 2*InlineAttrs; i++ {
			e.SetInt(fmt.Sprintf("k%02d", i), int64(i))
		}
		if e.spill == nil {
			t.Fatal("test event did not spill")
		}
		return e
	}

	// Clone is O(1): no per-attribute copying, only the struct.
	scratch := spilled()
	allocs := testing.AllocsPerRun(100, func() {
		c := scratch.Clone()
		_ = c
	})
	if allocs > 1 {
		t.Fatalf("spilled Clone allocates %.1f objects, want ≤ 1", allocs)
	}

	e := spilled()
	cp := e.Clone()
	if cp.spill != e.spill {
		t.Fatal("clone did not share the spill store")
	}
	if got := e.spill.refs.Load(); got != 2 {
		t.Fatalf("shared store refs = %d, want 2", got)
	}

	// Write to the clone: copies first, original untouched.
	cp.SetInt("k00", -1)
	if cp.spill == e.spill {
		t.Fatal("clone write did not copy the shared store")
	}
	if v, _ := e.Get("k00"); !v.Equal(Int(0)) {
		t.Fatal("clone write leaked into original")
	}
	// Original regained sole ownership: its next write is in place.
	if got := e.spill.refs.Load(); got != 1 {
		t.Fatalf("original store refs = %d after clone detached, want 1", got)
	}
	before := e.spill
	e.SetInt("k01", -2)
	if e.spill != before {
		t.Fatal("sole-owner write copied needlessly")
	}
	if v, _ := cp.Get("k01"); !v.Equal(Int(1)) {
		t.Fatal("original write leaked into detached clone")
	}
}

// TestCloneConcurrentOnSharedEvent exercises the bus fan-out pattern:
// many goroutines cloning one shared, read-only event concurrently
// (run under -race in CI).
func TestCloneConcurrentOnSharedEvent(t *testing.T) {
	e := New()
	for i := 0; i < 2*InlineAttrs; i++ {
		e.SetInt(fmt.Sprintf("k%02d", i), int64(i))
	}
	done := make(chan *Event, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			cp := e.Clone()
			cp.SetInt("mine", int64(g))
			done <- cp
		}(g)
	}
	for g := 0; g < 8; g++ {
		cp := <-done
		if cp.Len() != e.Len()+1 {
			t.Fatalf("clone Len = %d", cp.Len())
		}
	}
	if !e.Has("k00") || e.Has("mine") {
		t.Fatal("original corrupted by concurrent clones")
	}
}

// TestPoolLifecycle pins the recycled-event contract: Acquire/Release
// round-trips through the free list, Retain defers recycling, and
// events from New ignore the lifecycle entirely.
func TestPoolLifecycle(t *testing.T) {
	e := Acquire()
	e.SetInt("a", 1)
	e.Retain()
	e.Release()
	if e.Len() != 1 {
		t.Fatal("event cleared while a reference remained")
	}
	e.Release() // last reference: cleared and recycled
	// The recycled struct may be reused by anyone; check via a fresh
	// Acquire that state never leaks.
	f := Acquire()
	defer f.Release()
	if f.Len() != 0 || f.Sender != 0 || f.Seq != 0 {
		t.Fatalf("recycled event not cleared: %v", f)
	}

	plain := New().SetInt("a", 1)
	plain.Release() // no-op
	plain.Release() // still a no-op, not a double free
	if v, ok := plain.Get("a"); !ok || !v.Equal(Int(1)) {
		t.Fatal("Release touched a non-pooled event")
	}
}

// TestRandomizedAgainstMap cross-checks the inline representation
// against a plain map oracle under a random operation mix.
func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := New()
	oracle := map[string]Value{}
	names := make([]string, 40)
	for i := range names {
		names[i] = fmt.Sprintf("n%02d", i)
	}
	for op := 0; op < 5000; op++ {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(3) {
		case 0:
			v := Int(int64(op))
			e.Set(name, v)
			oracle[name] = v
		case 1:
			e.delete(name)
			delete(oracle, name)
		case 2:
			v, ok := e.Get(name)
			ov, ook := oracle[name]
			if ok != ook || (ok && !v.Equal(ov)) {
				t.Fatalf("op %d: Get(%q) = %v,%v; oracle %v,%v", op, name, v, ok, ov, ook)
			}
		}
		if e.Len() != len(oracle) {
			t.Fatalf("op %d: Len %d != oracle %d", op, e.Len(), len(oracle))
		}
	}
	// Final sweep: sorted iteration matches the oracle exactly.
	sorted := make([]string, 0, len(oracle))
	for n := range oracle {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for i, n := range sorted {
		name, v := e.At(i)
		if name != n || !v.Equal(oracle[n]) {
			t.Fatalf("At(%d) = %q, want %q", i, name, n)
		}
	}
}
