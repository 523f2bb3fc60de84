package harness

import (
	"fmt"
	"math/rand"

	"github.com/amuse/smc/internal/bench"
	"github.com/amuse/smc/internal/event"
)

// The reading kinds internal/bench.Workload generates, with the value
// range of each (base ± spread) so threshold filters can be drawn
// inside it.
var readingKinds = []struct {
	kind         string
	base, spread float64
}{
	{"heart-rate", 72, 20},
	{"spo2", 97, 3},
	{"temperature", 36.9, 0.6},
	{"bp-systolic", 118, 18},
}

// patients is how many patients local_dispatch's readings spread over:
// with 2 048 filters over 4 kinds × 32 patients and thresholds uniform
// over the value range, a reading matches 8 filters on average.
const patients = 32

// subSpec describes one subscriber of a workload's population.
type subSpec struct {
	name    string
	filters []*event.Filter
	// durable names the durable consumer the member binds to ("" for a
	// live-only subscriber); roams marks the durable consumers that
	// leave and rejoin in the catch-up rounds.
	durable string
	roams   bool
}

// recipient is one expected receiver of a pool event: subscriber index
// and how many deliveries it gets (a bus-local service is called once
// per matching filter; a member is delivered to once however many of
// its filters match).
type recipient struct {
	sub, mult int32
}

// poolEvent is one generated event with its expected recipients,
// computed by the reference matcher before anything is published.
type poolEvent struct {
	e      *event.Event
	recips []recipient
	// deliveries is the sum of recips' multiplicities.
	deliveries int
}

// genEvents draws n events of the management mix from seed. With
// withPatient each reading also names one of `patients` patients, the
// attribute local_dispatch's selective filters discriminate on.
func genEvents(seed int64, n int, withPatient bool) []*event.Event {
	w := bench.NewWorkload(bench.DefaultMix(), seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]*event.Event, n)
	for i := range out {
		e, class := w.Next()
		if withPatient && class == bench.ClassReading {
			e.SetInt("patient", int64(rng.Intn(patients)))
		}
		out[i] = e
	}
	return out
}

// neverMatching returns k threshold filters no generated reading can
// satisfy: the bulk a real table carries besides the filters that fire.
func neverMatching(sub, k int) []*event.Filter {
	fs := make([]*event.Filter, k)
	for i := range fs {
		fs[i] = event.NewFilter().WhereType("reading").
			Where("value", event.OpGe, event.Float(1e6+float64(sub*k+i)))
	}
	return fs
}

// wardPopulation is the member population of ward_fanout, lossy_link
// and durable_roam: 2 dashboards on every reading, 4 per-kind
// monitors, 1 alarm pager, 1 membership auditor; each also holds 8
// never-matching threshold filters. With durable set, four of them are
// durable consumers and two of those roam.
func wardPopulation(durable bool) []subSpec {
	subs := []subSpec{
		{name: "dash-1", filters: []*event.Filter{event.NewFilter().WhereType("reading")}},
		{name: "dash-2", filters: []*event.Filter{event.NewFilter().WhereType("reading")}},
	}
	for _, k := range readingKinds {
		subs = append(subs, subSpec{
			name: "mon-" + k.kind,
			filters: []*event.Filter{
				event.NewFilter().WhereType("reading").Where("kind", event.OpEq, event.Str(k.kind)),
			},
		})
	}
	subs = append(subs,
		subSpec{name: "pager", filters: []*event.Filter{
			event.NewFilter().WhereType("alarm").Where("severity", event.OpGe, event.Int(2)),
		}},
		subSpec{name: "auditor", filters: []*event.Filter{
			event.NewFilter().WhereType(event.TypeNewMember),
			event.NewFilter().WhereType(event.TypePurgeMember),
		}},
	)
	for i := range subs {
		subs[i].filters = append(subs[i].filters, neverMatching(i, 8)...)
	}
	if durable {
		// dash-2 and one monitor roam; the pager and the auditor are
		// durable consumers that stay.
		for _, i := range []int{1, 2, 6, 7} {
			subs[i].durable = "durable-" + subs[i].name
		}
		subs[1].roams, subs[2].roams = true, true
	}
	return subs
}

// localPopulation is local_dispatch's table: nSubs bus-local services
// sharing nFilters selective filters (type ∧ kind ∧ patient ∧
// value ≥ T), dealt out evenly in a seeded shuffle.
func localPopulation(seed int64, nSubs, nFilters int) []subSpec {
	rng := rand.New(rand.NewSource(seed ^ 0xf117e5))
	subs := make([]subSpec, nSubs)
	for i := range subs {
		subs[i].name = fmt.Sprintf("local-%02d", i)
	}
	owner := rng.Perm(nFilters)
	combos := len(readingKinds) * patients
	for j := 0; j < nFilters; j++ {
		k := readingKinds[j%combos%len(readingKinds)]
		patient := j % combos / len(readingKinds)
		threshold := k.base + (rng.Float64()*2-1)*k.spread
		f := event.NewFilter().WhereType("reading").
			Where("kind", event.OpEq, event.Str(k.kind)).
			Where("patient", event.OpEq, event.Int(int64(patient))).
			Where("value", event.OpGe, event.Float(threshold))
		s := &subs[owner[j]*nSubs/nFilters]
		s.filters = append(s.filters, f)
	}
	return subs
}

// reference computes every event's expected recipients by brute force
// (Filter.Matches over the harness's own filter list): the oracle the
// bus's matcher and fan-out are checked against. perFilter selects the
// bus-local rule — one delivery per matching filter — instead of the
// member rule of one delivery per subscriber.
func reference(events []*event.Event, subs []subSpec, perFilter bool) []poolEvent {
	pool := make([]poolEvent, len(events))
	for i, e := range events {
		pe := poolEvent{e: e}
		for si, s := range subs {
			n := 0
			for _, f := range s.filters {
				if f.Matches(e) {
					n++
					if !perFilter {
						break
					}
				}
			}
			if n > 0 {
				pe.recips = append(pe.recips, recipient{sub: int32(si), mult: int32(n)})
				pe.deliveries += n
			}
		}
		pool[i] = pe
	}
	return pool
}
