package harness

import (
	"fmt"
	"time"

	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/smc"
)

// spec is one workload: who is in the cell, what carries the traffic,
// and how the measured time is divided. Everything that departs from a
// product default is a field here and is listed in BENCHMARK.json's
// `why` and in the README.
type spec struct {
	name string
	why  string

	// local makes publishers and subscribers bus-local services (no
	// wire, no proxy); otherwise they are members joined through
	// discovery over the Switch.
	local bool
	// lossy puts the members on netsim instead and switches every
	// member↔bus link to lossyLAN once set-up is done.
	lossy bool
	// batch is the wire-level batching both ends use (zero = off, the
	// product default).
	batch smc.BatchConfig
	// durable gives the cell a disk-backed event log and makes four
	// subscribers durable consumers, two of which roam.
	durable bool

	publishers     int
	population     func(seed int64) []subSpec
	poolSize       int // generated events per publisher
	patientAttr    bool
	warmupEvents   uint64 // per publisher, at the saturate credit: part of set-up
	steadyCredit   int
	saturateCredit int
	// Shares of the measured seconds, and the length of the rounds each
	// phase is cut into. Catch-up rounds are bounded by gapEvents, not
	// by time: what the two shares leave of the measured seconds is
	// what they are expected to take.
	steadyShare, saturateShare float64
	roundLen                   time.Duration
	catchupRounds              int
	gapEvents                  uint64 // per publisher and catch-up round
}

// lossyLAN is the link of lossy_link: a copy of the `lossy-lan`
// profile in the repository's bench_test.go (unexported there). Real
// latency and loss but no bandwidth cap, so the packet count and the
// retransmit timer — not link capacity — bound the result.
var lossyLAN = netsim.Profile{
	Name:      "lossy-lan",
	Latency:   2 * time.Millisecond,
	Jitter:    500 * time.Microsecond,
	Loss:      0.05,
	Duplicate: 0.02,
	Reorder:   0.1,
	ReorderBy: 2 * time.Millisecond,
}

// lossyLANReturn is the direction the acknowledgements take: the same
// latency and loss, but neither jitter, duplication nor reordering, so
// acknowledgements arrive in the order they were sent. With all three
// on the return path as well, internal/reliable now and then takes a
// burst of late, overtaken acknowledgements for a restarted receiver,
// resets a healthy stream and sends a window of delivered events again
// (README, "What the verifier found") — about one run in a hundred
// failed on duplicates. A workload's operations must not fail on the
// parent commit, so the trigger is kept off the link rather than the
// failure retried; a reset that repeats deliveries still fails the run.
var lossyLANReturn = netsim.Profile{
	Name:    "lossy-lan-return",
	Latency: 2 * time.Millisecond,
	Loss:    0.05,
}

func wardSpec(name, why string) spec {
	return spec{
		name: name, why: why,
		publishers:     2,
		population:     func(int64) []subSpec { return wardPopulation(false) },
		poolSize:       8192,
		warmupEvents:   50000,
		steadyCredit:   4,
		saturateCredit: 48,
		steadyShare:    0.5, saturateShare: 0.5,
		// Rounds shorter than the host's changes of pace: this box's
		// vCPUs flip between clock states that differ by a quarter and
		// last a few hundred milliseconds (results/README.md). A
		// 100 ms round is mostly inside one state, so the median over
		// rounds reports the prevailing state; a 2 s round is a blend
		// whose mix differs from run to run.
		roundLen: 100 * time.Millisecond,
	}
}

// Workloads lists the benchmark's workloads in the order they run.
func Workloads() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// WorkloadWhy reports why a workload was chosen (BENCHMARK.json's `why`).
func WorkloadWhy(name string) string {
	s, err := specOf(name)
	if err != nil {
		return ""
	}
	return s.why
}

func specOf(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, Workloads())
}

var specs = func() []spec {
	local := wardSpec("local_dispatch",
		"bus-local publishers and 64 subscribers over 2048 selective filters, no network: only bus, matcher and event work, and set-up is the matcher's copy-on-write writer")
	local.local = true
	local.population = func(seed int64) []subSpec { return localPopulation(seed, 64, 2048) }
	local.poolSize = 2048
	local.patientAttr = true
	local.warmupEvents = 20000

	ward := wardSpec("ward_fanout",
		"2 publishers and 8 subscribers joined as members over the in-memory switch, batching off: the whole member path, where per-packet cost dominates")

	lossy := wardSpec("lossy_link",
		"the ward population over netsim with 5% loss, 2 ms latency, dup and reorder, batching 16/200us: link- and timer-bound, so CPU savings elsewhere must show no change")
	lossy.lossy = true
	lossy.batch = smc.BatchConfig{Events: 16, FlushDelay: 200 * time.Microsecond}
	// The link and the 50 ms retransmit timer, not the CPU, set the
	// pace here: a round must hold many timer stalls to mean anything,
	// and the clock state does not matter.
	lossy.steadyCredit, lossy.saturateCredit = 32, 100
	// Steady gets the larger share: at ≈ 8 k deliveries/s it takes 19 s
	// to collect the 150 k response samples a p99 of ≈ 80 ms wants.
	lossy.steadyShare, lossy.saturateShare = 0.7, 0.3
	lossy.roundLen = 1750 * time.Millisecond
	lossy.warmupEvents = 100000 // batched over a still-perfect link: 3× ward_fanout's rate

	durable := wardSpec("durable_roam",
		"ward_fanout on a cell with a disk-backed event log, 4 durable consumers of which 2 leave and rejoin: store on the publish path and in bulk replay at once")
	durable.durable = true
	durable.population = func(int64) []subSpec { return wardPopulation(true) }
	durable.steadyShare, durable.saturateShare = 0.4, 0.4 // the catch-up rounds take the rest
	durable.catchupRounds = 4
	durable.warmupEvents = 30000
	durable.gapEvents = 25000

	return []spec{local, ward, lossy, durable}
}()
