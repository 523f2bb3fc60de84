package event

import (
	"fmt"
	"sync"
	"testing"
)

// TestInternSeedVocabulary: the core SMC vocabulary is interned from
// process start and lookups return the shared instance.
func TestInternSeedVocabulary(t *testing.T) {
	for _, name := range []string{AttrType, AttrMember, AttrDeviceType, TypeNewMember, TypeAlarm, "value"} {
		got, ok := LookupIntern([]byte(name))
		if !ok || got != name {
			t.Fatalf("seed name %q not interned (ok=%v got=%q)", name, ok, got)
		}
	}
}

// TestInternLookupNoAlloc: the hit path is allocation-free — the point
// of the table.
func TestInternLookupNoAlloc(t *testing.T) {
	key := []byte(AttrType)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := LookupIntern(key); !ok {
			t.Fatal("seeded name missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("interned lookup allocated %.1f times per run", allocs)
	}
}

// TestInternPromotion: an unknown name seen internPromoteAfter times
// is promoted into the table automatically.
func TestInternPromotion(t *testing.T) {
	name := []byte("promotion-test-name-xq7")
	if _, ok := LookupIntern(name); ok {
		t.Fatal("test name unexpectedly pre-interned")
	}
	for i := 0; i < internPromoteAfter; i++ {
		LookupIntern(name)
	}
	got, ok := LookupIntern(name)
	if !ok || got != string(name) {
		t.Fatalf("name not promoted after %d sightings (ok=%v)", internPromoteAfter+1, ok)
	}
}

// TestInternExplicit: Intern registers immediately, and empty strings
// are ignored.
func TestInternExplicit(t *testing.T) {
	Intern("explicit-intern-test-xq9", "")
	if _, ok := LookupIntern([]byte("explicit-intern-test-xq9")); !ok {
		t.Fatal("explicitly interned name missed")
	}
	if _, ok := LookupIntern(nil); ok {
		t.Fatal("empty name should never intern")
	}
}

// TestInternConcurrent: lookups and promotions race-free under load
// (run with -race).
func TestInternConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				LookupIntern([]byte(AttrType))
				LookupIntern([]byte(fmt.Sprintf("conc-intern-%d-%d", g, i%4)))
				if i%50 == 0 {
					Intern(fmt.Sprintf("conc-explicit-%d-%d", g, i))
				}
			}
		}(g)
	}
	wg.Wait()
	if n, _ := internStats(); n == 0 {
		t.Fatal("intern table empty after concurrent load")
	}
}

// internStats reports the intern table size and the number of names
// currently tracked for promotion (observability and tests).
func internStats() (entries, tracked int) {
	internMu.Lock()
	defer internMu.Unlock()
	return len(interned.Load().m), len(internMisses)
}
