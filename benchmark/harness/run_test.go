package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// smoke is a run cut down to a fraction of a second: 200 ms phases,
// one set-up, a few hundred warm-up and gap events. It is the full
// code path all the same, verifier included.
func smoke(t *testing.T, workload string, traced bool) *Result {
	t.Helper()
	res, err := Run(Options{Workload: workload, Seed: 42, Trace: traced, OutDir: t.TempDir(), Seconds: 0.4, Smoke: true})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct() {
		t.Fatalf("%s: verifier failed: %d of %d, %v", workload, res.Failed, res.Attempted, res.Problems)
	}
	if res.Attempted < 1000 {
		t.Errorf("%s: only %d deliveries attempted", workload, res.Attempted)
	}
	return res
}

func TestSmokeEveryWorkloadUntraced(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w, func(t *testing.T) {
			res := smoke(t, w, false)
			if len(res.Metrics) != len(EndToEnd) {
				t.Fatalf("got %d metrics, want the %d end-to-end ones", len(res.Metrics), len(EndToEnd))
			}
			for _, d := range EndToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v): every end-to-end metric must be positive on every workload", d.Name, m, ok)
				}
			}
		})
	}
}

func TestSmokeTracedReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer probes take a few seconds")
	}
	res := smoke(t, "durable_roam", true)
	if len(res.Metrics) != len(PerLayer) {
		t.Fatalf("got %d metrics, want the %d per-layer ones", len(res.Metrics), len(PerLayer))
	}
	// durable_roam exercises every layer but netsim: everything that
	// is not a drop, retry or leak counter must have moved.
	mayBeZero := func(name string) bool {
		for _, s := range []string{"netsim.", "dropped", "retransmit", "redeliver", "leak", "dups", "deduped",
			"buffered", "piggyback", "batch", "evicted", "stream_resets", "lag_max", "gc_", "overhead", "transport.udp"} {
			if strings.Contains(name, s) {
				return true
			}
		}
		return false
	}
	for _, d := range PerLayer {
		if v := res.Metrics[d.Name].Value; v == 0 && !mayBeZero(d.Name) {
			t.Errorf("%s = 0 on a workload that exercises its layer", d.Name)
		}
	}
	raw, err := os.ReadFile(filepath.Join(res.Env["out_dir"], "trace-durable_roam.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Spans []struct {
			Name, Parent, Event string
			Start               int64 `json:"start_ns"`
			End                 int64 `json:"end_ns"`
		}
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	names := map[string]int{}
	for _, s := range trace.Spans {
		names[s.Name]++
		if s.End < s.Start || s.Event == "" || (s.Name != "event") != (s.Parent == "event:"+s.Event) {
			t.Fatalf("malformed span %+v", s)
		}
	}
	for _, n := range []string{"event", "publish_call", "ack", "deliver"} {
		if names[n] == 0 {
			t.Errorf("trace has no %q span (%v)", n, names)
		}
	}
}

// verifierRig is a run with one publisher and one subscriber and no
// cell: just the verifier's own state.
func verifierRig() (*run, *publisher, *subscriber, *lane) {
	p := newPublisher(0, nil)
	p.id = ident.New(pubAddr)
	s := &subscriber{rings: []*ring{newRing(8)}}
	s.online.Store(true)
	l := &lane{hist: newLiveHistogram()}
	r := &run{t0: time.Now(), pubs: []*publisher{p}, subs: []*subscriber{s}, lanes: []*lane{l}}
	return r, p, s, l
}

func delivery(seq uint64) *event.Event {
	e := event.NewTyped("reading")
	e.Sender, e.Seq, e.Stamp = ident.New(pubAddr), seq, time.Unix(0, 1)
	return e
}

func TestVerifierCatchesEveryKindOfViolation(t *testing.T) {
	expect := func(p *publisher, s *subscriber, slot int, seq uint64) {
		p.slots[slot].remaining.Store(1)
		s.rings[0].push(seq | uint64(slot)<<slotShift | countedBit)
	}
	t.Run("exact", func(t *testing.T) {
		r, p, s, l := verifierRig()
		expect(p, s, 3, 1)
		r.deliver(l, s, delivery(1))
		if l.failed.Load() != 0 || l.delivered.Load() != 1 {
			t.Fatalf("a correct delivery was rejected: failed=%d delivered=%d", l.failed.Load(), l.delivered.Load())
		}
		if got := <-p.tokens; got != 3 {
			t.Fatalf("credit came back for slot %d, want 3", got)
		}
	})
	for name, seqs := range map[string][]uint64{
		"duplicate":  {1, 1},
		"gap":        {2},
		"reordered":  {2, 1},
		"unexpected": {1, 2, 3}, // nothing further was expected
	} {
		seqs := seqs
		t.Run(name, func(t *testing.T) {
			r, p, s, l := verifierRig()
			expect(p, s, 0, 1)
			expect(p, s, 1, 2)
			if name == "gap" {
				s.rings[0].pop() // seq 1 is delivered fine; 2 is skipped and 3 arrives
				expect(p, s, 2, 3)
				seqs = []uint64{3}
			}
			for _, q := range seqs {
				r.deliver(l, s, delivery(q))
			}
			if l.failed.Load() == 0 {
				t.Fatalf("%s deliveries %v passed the verifier", name, seqs)
			}
		})
	}
	t.Run("missing", func(t *testing.T) {
		r, p, s, _ := verifierRig()
		expect(p, s, 0, 1)
		p.attempted = 1
		res := &Result{}
		r.verify(res, counterSnapshot{}, 0, nil)
		if res.Failed != 1 || res.Correct() {
			t.Fatalf("an undelivered event passed: %+v", res)
		}
	})
	t.Run("drops and leaks", func(t *testing.T) {
		r, p, _, _ := verifierRig()
		p.attempted = 1
		var c counterSnapshot
		c.bus.Dropped, c.proxy.DroppedOldest, c.poolLeak = 1, 2, 3
		c.client.EventsReceived, c.consumed = 10, 6
		res := &Result{}
		r.verify(res, c, 5, nil)
		if res.Failed != 1+2+3+4+5 || len(res.Problems) != 5 {
			t.Fatalf("want 15 failures in 5 problems, got %d in %v", res.Failed, res.Problems)
		}
	})
	t.Run("system events are not the harness's", func(t *testing.T) {
		r, _, s, l := verifierRig()
		e := delivery(1)
		e.Sender = ident.New(discAddr)
		r.deliver(l, s, e)
		if l.failed.Load() != 0 || r.system.Load() != 1 {
			t.Fatal("an event the cell published was held against the verifier")
		}
	})
}

func TestFailedRunWithholdsNumbers(t *testing.T) {
	var out bytes.Buffer
	res := &Result{Workload: "ward_fanout", Failed: 2, Attempted: 10, Problems: []string{"2 expected deliveries never arrived"},
		Metrics: map[string]Metric{"delivered_eps": {Value: 1, Unit: "1/s"}}}
	printResult(&out, res)
	if strings.Contains(out.String(), "delivered_eps") || !strings.Contains(out.String(), "FAILED") {
		t.Fatalf("a failed run printed numbers:\n%s", out.String())
	}
}

// BENCHMARK.json at the root of the repository is generated by
// `smcbench -manifest`; this keeps the two from drifting apart.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatal("BENCHMARK.json differs from `smcbench -manifest`; regenerate it")
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 || len(m.Workloads) != 4 || len(m.PerLayer) > 128 {
		t.Fatalf("manifest outside the contract's limits: %d bytes, %d workloads, %d per-layer", len(raw), len(m.Workloads), len(m.PerLayer))
	}
	for _, e := range m.EndToEnd {
		if e.Bound == nil || *e.Bound < 0.05 || *e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [5%%, 25%%], the contract's range", e.Name, e.Bound)
		}
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
}
