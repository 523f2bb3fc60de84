// Package bench is the measurement harness that regenerates every
// figure of the paper's evaluation (§V) plus the ablations §VI calls
// for. EXPERIMENTS.md indexes the experiments and sets the measured
// results against the paper's.
package bench

import (
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/wire"
)

// Cost models the processing overhead of the constrained host (the
// paper's PDA with a 2006-era JVM): a fixed cost per packet plus a
// per-byte cost for copies and OS↔runtime transfers (§V attributes the
// observed response-time growth to packet-data copying). The zero Cost
// disables the model.
type Cost struct {
	IngestPerEvent  time.Duration
	DeliverPerEvent time.Duration
	PerByte         time.Duration
}

// costMatcher charges a Cost on the bus's shard worker, the goroutine
// that matches an event and then hands it to every target: the ingest
// cost before the match, then one deliver cost per target. Every
// subscriber of a Fig. 4 deployment is a member, so each target is one
// proxy hand-off. Both costs add the per-byte cost of the encoded
// packet (sized, not encoded: wire.EventSize allocates nothing).
type costMatcher struct {
	matcher.Matcher
	cost Cost
}

func (m costMatcher) MatchAppendScratch(e *event.Event, dst []ident.ID, sc *matcher.Scratch) []ident.ID {
	perByte := time.Duration(wire.HeaderLen+wire.EventSize(e)) * m.cost.PerByte
	charge(m.cost.IngestPerEvent + perByte)
	n := len(dst)
	dst = m.Matcher.MatchAppendScratch(e, dst, sc)
	charge(time.Duration(len(dst)-n) * (m.cost.DeliverPerEvent + perByte))
	return dst
}

// charge busy-waits for very short costs and sleeps for longer ones,
// keeping the model usable at sub-millisecond calibrations.
func charge(d time.Duration) {
	if d <= 0 {
		return
	}
	if d < 500*time.Microsecond {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
		}
		return
	}
	time.Sleep(d)
}

// Flavor is one event-bus configuration under test: the matching
// mechanism plus the calibrated host-cost model standing in for the
// paper's PDA (iPAQ hx4700, Blackdown JVM 1.3.1).
//
// Calibration: the paper's Figure 4 shows the Siena-based bus reaching
// ≈550 ms response at 5000-byte payloads and ≈10–14 KB/s throughput,
// and the dedicated C-based bus reaching ≈150–200 ms and ≈20–22 KB/s.
// Those absolute numbers are properties of the 2006 hardware/JVM, so
// the Cost model charges a per-event base (OS/JVM packet handling) and
// a per-byte copy cost per hop, chosen so the simulated host matches
// the paper's envelope; the *difference* between the flavours also
// exists structurally in the code (the Siena matcher translates every
// event into its own boxed attribute model, the fast matcher does
// not). The calibration constants are documented in EXPERIMENTS.md.
type Flavor struct {
	Name    string
	Matcher matcher.Kind
	Cost    Cost
}

// The two buses of §IV/§V.
var (
	// SienaFlavor models the Siena-based prototype: heavier per-event
	// base (generic engine, type translations) and a higher per-byte
	// cost (the extra copies §V attributes the response-time growth
	// to).
	SienaFlavor = Flavor{
		Name:    "siena-based",
		Matcher: matcher.KindSiena,
		Cost: Cost{
			IngestPerEvent:  25 * time.Millisecond,
			DeliverPerEvent: 20 * time.Millisecond,
			PerByte:         40 * time.Microsecond,
		},
	}

	// FastFlavor models the dedicated C-based replacement: minimal
	// base cost and far fewer copies.
	FastFlavor = Flavor{
		Name:    "c-based",
		Matcher: matcher.KindFast,
		Cost: Cost{
			IngestPerEvent:  12 * time.Millisecond,
			DeliverPerEvent: 8 * time.Millisecond,
			PerByte:         16 * time.Microsecond,
		},
	}

	// RawFlavors disables the host-cost model entirely: both engines
	// at native Go speed. Used by the matcher microbenchmarks, where
	// the structural difference between the engines is measured
	// directly.
	SienaRaw = Flavor{Name: "siena-raw", Matcher: matcher.KindSiena}
	FastRaw  = Flavor{Name: "fast-raw", Matcher: matcher.KindFast}
)

// Flavors returns the two calibrated buses in paper order.
func Flavors() []Flavor {
	return []Flavor{SienaFlavor, FastFlavor}
}
