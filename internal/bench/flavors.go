// Package bench is the measurement harness that regenerates every
// figure of the paper's evaluation (§V) plus the ablations §VI calls
// for. EXPERIMENTS.md indexes the experiments and sets the measured
// results against the paper's.
package bench

import (
	"time"

	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/matcher"
)

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
	Cost    bus.Cost
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
		Cost: bus.Cost{
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
		Cost: bus.Cost{
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
