package bench

import (
	"fmt"
	"time"

	"github.com/amuse/smc/internal/event"
)

// FanoutCounts are the subscriber counts of the fan-out ablation
// ("variation in delays incurred depending on ... number of
// recipients", §VI).
var FanoutCounts = []int{1, 2, 4, 8, 16, 32}

// AblationFanout measures end-to-end delay (until the last subscriber
// receives) against the number of recipients, for both buses, at a
// fixed payload of 500 bytes.
func AblationFanout(opt Options) (Result, error) {
	res := Result{Figure: "Ablation: response time (ms) vs number of recipients (500 B payload)"}
	const payload = 500
	for _, flavor := range Flavors() {
		s := Series{Name: flavor.Name, XLabel: "subscribers", YLabel: "ms"}
		for _, n := range FanoutCounts {
			env, err := NewEnv(flavor, EnvConfig{Link: opt.Link, Subscribers: n})
			if err != nil {
				return res, err
			}
			if _, err := env.PublishAndWait(payload, 60*time.Second); err != nil {
				env.Close()
				return res, fmt.Errorf("%s n=%d warmup: %w", flavor.Name, n, err)
			}
			var total time.Duration
			for i := 0; i < opt.Iterations; i++ {
				d, err := env.PublishAndWait(payload, 60*time.Second)
				if err != nil {
					env.Close()
					return res, fmt.Errorf("%s n=%d: %w", flavor.Name, n, err)
				}
				total += d
			}
			env.Close()
			avg := total / time.Duration(opt.Iterations)
			s.Points = append(s.Points, Point{X: float64(n), Y: float64(avg) / float64(time.Millisecond)})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// AblationQuench measures the radio transmissions a publisher performs
// with and without quenching (§VI power saving) while no subscription
// matches its events, for a fixed number of attempted publishes.
func AblationQuench(opt Options) (Result, error) {
	res := Result{Figure: "Ablation: publisher radio sends with/without quenching (no matching subscriber)"}
	const attempts = 50
	for _, quench := range []bool{false, true} {
		flavor := FastFlavor
		env, err := NewEnv(flavor, EnvConfig{
			Link:            opt.Link,
			Subscribers:     1,
			NoSubscriptions: true,
			Quench:          quench,
		})
		if err != nil {
			return res, err
		}
		before := env.Net.Stats().Sent
		for i := 0; i < attempts; i++ {
			_ = env.Pub.Publish(benchEvent(100)) // ErrQuenched expected once quenched
			// Small pause so the quench packet can arrive.
			time.Sleep(5 * time.Millisecond)
		}
		// Count only datagrams originated by the publisher: total
		// network sends minus the bus's (acks, quench). Using client
		// stats is the precise measure.
		st := env.Pub.Stats()
		_ = before
		name := "quench-off"
		if quench {
			name = "quench-on"
		}
		s := Series{Name: name, XLabel: "attempted", YLabel: "count"}
		s.Points = append(s.Points,
			Point{X: 0, Y: float64(st.Published)},        // actually transmitted
			Point{X: 1, Y: float64(st.QuenchSuppressed)}, // saved by quench
		)
		env.Close()
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// AblationRedelivery exercises §VI's queueing-and-redelivery path: a
// subscriber disappears mid-stream (isolated, not purged), returns,
// and must receive every event exactly once in order. The series
// reports delivered/redeliveries/dropped counts.
func AblationRedelivery(opt Options) (Result, error) {
	res := Result{Figure: "Ablation: redelivery to a transiently disconnected subscriber"}
	flavor := FastFlavor
	env, err := NewEnv(flavor, EnvConfig{Link: opt.Link, Subscribers: 1})
	if err != nil {
		return res, err
	}
	defer env.Close()
	sub := env.Subs[0]

	const total = 20
	// Phase 1: a few events while connected.
	for i := 0; i < 5; i++ {
		if err := env.Pub.Publish(benchEvent(64)); err != nil {
			return res, err
		}
	}
	// Phase 2: the subscriber walks out of range.
	env.Net.Isolate(sub.ID())
	for i := 5; i < 15; i++ {
		if err := env.Pub.Publish(benchEvent(64)); err != nil {
			return res, err
		}
	}
	// Give the proxy time to burn through its first delivery attempts.
	time.Sleep(300 * time.Millisecond)
	// Phase 3: back in range; remaining events flow and the queued
	// backlog is redelivered.
	env.Net.Restore(sub.ID())
	for i := 15; i < total; i++ {
		if err := env.Pub.Publish(benchEvent(64)); err != nil {
			return res, err
		}
	}

	received := 0
	var firstErr error
	for received < total {
		ev, err := sub.NextEvent(20 * time.Second)
		if err != nil {
			firstErr = err
			break
		}
		ev.Release()
		received++
	}
	px := env.Bus.MemberProxy(sub.ID())
	s := Series{Name: "redelivery", XLabel: "metric", YLabel: "count"}
	s.Points = append(s.Points,
		Point{X: 0, Y: float64(total)},    // published
		Point{X: 1, Y: float64(received)}, // delivered
	)
	if px != nil {
		st := px.Stats()
		s.Points = append(s.Points,
			Point{X: 2, Y: float64(st.Redeliveries)},
			Point{X: 3, Y: float64(st.DroppedOldest)},
		)
	}
	res.Series = append(res.Series, s)
	if firstErr != nil {
		return res, fmt.Errorf("after %d/%d deliveries: %w", received, total, firstErr)
	}
	if received != total {
		return res, fmt.Errorf("delivered %d of %d", received, total)
	}
	return res, nil
}

// MatcherWorkload is the match-only microbench workload: n
// subscriptions over a small attribute vocabulary plus a stream of
// events, used to isolate the translation overhead between engines
// without the host-cost model.
type MatcherWorkload struct {
	Filters []*event.Filter
	Events  []*event.Event
}

// NewMatcherWorkload builds a deterministic workload of n filters.
func NewMatcherWorkload(n int) MatcherWorkload {
	w := MatcherWorkload{}
	for i := 0; i < n; i++ {
		f := event.NewFilter().WhereType("reading")
		switch i % 4 {
		case 0:
			f.Where("value", event.OpGt, event.Int(int64(i%200)))
		case 1:
			f.Where("unit", event.OpEq, event.Str("bpm"))
		case 2:
			f.Where("value", event.OpLe, event.Float(float64(i%150)))
		case 3:
			f.Where("source", event.OpPrefix, event.Str("ward-"))
		}
		w.Filters = append(w.Filters, f)
	}
	for i := 0; i < 64; i++ {
		e := event.NewTyped("reading").
			SetFloat("value", float64(i*3%250)).
			SetStr("unit", "bpm").
			SetStr("source", fmt.Sprintf("ward-%d", i%8)).
			SetInt("seq", int64(i))
		w.Events = append(w.Events, e)
	}
	return w
}
