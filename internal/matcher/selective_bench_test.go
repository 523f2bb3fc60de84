package matcher_test

import (
	"math/rand"
	"testing"

	"github.com/amuse/smc/internal/bench"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
)

// selectiveTable rebuilds the table of the repository benchmark's
// local_dispatch workload (benchmark/harness.localPopulation, which the
// root module cannot import): n filters type ∧ kind ∧ patient ∧
// value ≥ T over 4 kinds × 32 patients, thresholds uniform over each
// kind's value range, and the management-mix events they are matched
// against, every reading naming a patient.
func selectiveTable(n int) (filters []*event.Filter, events []*event.Event) {
	kinds := []struct {
		kind         string
		base, spread float64
	}{
		{"heart-rate", 72, 20},
		{"spo2", 97, 3},
		{"temperature", 36.9, 0.6},
		{"bp-systolic", 118, 18},
	}
	const patients = 32
	rng := rand.New(rand.NewSource(6))
	for j := 0; j < n; j++ {
		k := kinds[j%len(kinds)]
		patient := j % (len(kinds) * patients) / len(kinds)
		filters = append(filters, event.NewFilter().WhereType("reading").
			Where("kind", event.OpEq, event.Str(k.kind)).
			Where("patient", event.OpEq, event.Int(int64(patient))).
			Where("value", event.OpGe, event.Float(k.base+(rng.Float64()*2-1)*k.spread)))
	}
	w := bench.NewWorkload(bench.DefaultMix(), 6)
	for i := 0; i < 1024; i++ {
		e, class := w.Next()
		if class == bench.ClassReading {
			e.SetInt("patient", int64(rng.Intn(patients)))
		}
		events = append(events, e)
	}
	return filters, events
}

// selectiveMatcher installs the table one subscriber per filter, the
// way the bus installs local handlers.
func selectiveMatcher(tb testing.TB, filters []*event.Filter) *matcher.FastMatcher {
	m := matcher.NewFast()
	for i, f := range filters {
		if err := m.Subscribe(ident.New(uint64(0x1000+i)), f); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// BenchmarkFastMatchSelective is the match the bus pays per event on
// local_dispatch: 2 048 selective filters of which a handful match.
func BenchmarkFastMatchSelective(b *testing.B) {
	filters, events := selectiveTable(2048)
	m, sc := selectiveMatcher(b, filters), matcher.NewScratch()
	var dst []ident.ID
	matches := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.MatchAppendScratch(events[i%len(events)], dst[:0], sc)
		matches += len(dst)
	}
	b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
}

// BenchmarkFastSubscribeSelective is its writer side: one Subscribe and
// one Unsubscribe against the full table, each a copy-on-write
// snapshot.
func BenchmarkFastSubscribeSelective(b *testing.B) {
	filters, _ := selectiveTable(2049)
	m, extra := selectiveMatcher(b, filters[:2048]), filters[2048]
	sub := ident.New(0xFFFF)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Subscribe(sub, extra); err != nil {
			b.Fatal(err)
		}
		if err := m.Unsubscribe(sub, extra); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFastMatchSelectiveZeroAlloc pins the selective match at no
// allocation once the scratch has grown to the table.
func TestFastMatchSelectiveZeroAlloc(t *testing.T) {
	filters, events := selectiveTable(2048)
	m, sc := selectiveMatcher(t, filters), matcher.NewScratch()
	dst := make([]ident.ID, 0, 64)
	for _, e := range events { // grow the scratch outside the measurement
		dst = m.MatchAppendScratch(e, dst[:0], sc)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		dst = m.MatchAppendScratch(events[i%len(events)], dst[:0], sc)
		i++
	})
	if allocs != 0 {
		t.Fatalf("selective match allocates %.2f objects/op, want 0", allocs)
	}
}
