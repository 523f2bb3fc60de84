package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Options selects and sizes one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the measured time: the sum of the steady, saturate
	// and catch-up phases. Set-up and verification come on top.
	Seconds float64
	// Trace records harness spans, runs the layer probes and reports
	// the per-layer metrics instead of the end-to-end ones.
	Trace bool
	// OutDir receives the trace file and the durable log directory.
	OutDir string
	// Smoke cuts the fixed-count parts down for the sub-second test
	// runs: one set-up, a few hundred warm-up and gap events.
	Smoke bool
}

const (
	// setups is how many times a run deploys its workload; setup_s is
	// the median.
	setups = 3
	// stallTimeout bounds how long published events may stay
	// undelivered before the run is aborted.
	stallTimeout = 30 * time.Second
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports.
type Result struct {
	Workload string
	Seed     int64
	Traced   bool
	// Attempted is the number of deliveries the reference matcher
	// expected; Failed the number of violations (missing, duplicated,
	// reordered or unexpected deliveries, publish errors, and every
	// drop or leak counter that must be zero).
	Attempted, Failed uint64
	Problems          []string
	// Metrics holds the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	Metrics map[string]Metric
	// Env records what the numbers were measured on and with.
	Env map[string]string
}

// Correct reports whether the verifier passed.
func (r *Result) Correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// roundSample is one round of a phase.
type roundSample struct {
	eps    float64 // verified deliveries per wall second
	cpuUs  float64 // process CPU microseconds per verified delivery
	traced bool
	// Response time of the round's deliveries, in nanoseconds (steady
	// phase only; samples is how many there were).
	p50, p99 float64
	samples  uint64
}

func (r *run) delivered() uint64 {
	var n uint64
	for _, l := range r.lanes {
		n += l.delivered.Load()
	}
	return n
}

// responseReader turns the lanes' running response-time counts into one
// histogram per round: the delivering goroutines never stop for a round
// boundary, so the controller reads the counts there and works on the
// difference to the previous reading.
type responseReader struct {
	lanes      []*lane
	first      []uint64 // reading at the start of the phase
	prev, cur  []uint64
	round, all *Histogram
}

func newResponseReader(lanes []*lane) *responseReader {
	rr := &responseReader{
		lanes: lanes,
		first: make([]uint64, histBuckets), prev: make([]uint64, histBuckets), cur: make([]uint64, histBuckets),
		round: NewHistogram(), all: NewHistogram(),
	}
	rr.read(rr.first)
	copy(rr.prev, rr.first)
	return rr
}

func (rr *responseReader) read(dst []uint64) {
	clear(dst)
	for _, l := range rr.lanes {
		l.hist.AddTo(dst)
	}
}

// next closes a round: round holds its samples, all those of the phase
// so far.
func (rr *responseReader) next() {
	rr.read(rr.cur)
	rr.round.SetDiff(rr.cur, rr.prev)
	rr.all.SetDiff(rr.cur, rr.first)
	rr.prev, rr.cur = rr.cur, rr.prev
}

// rounds runs publishers at the given credit for phase, cut into rounds
// of about roundLen, and samples deliveries, CPU and (with a reader)
// response times at the round boundaries; traffic does not pause
// between rounds. spans says which rounds record spans.
func (r *run) rounds(credit int, phase, roundLen time.Duration, spans func(round int) bool, rr *responseReader) ([]roundSample, error) {
	n := max(1, int((phase+roundLen/2)/roundLen))
	out := make([]roundSample, 0, n)
	err := r.publishWhile(credit, 0, func() {
		start := time.Now()
		for i := 0; i < n; i++ {
			traced := r.opts.Trace && spans(i)
			r.spansOn.Store(traced)
			t0, c0, d0 := time.Now(), cpuTime(), r.delivered()
			time.Sleep(time.Until(start.Add(phase * time.Duration(i+1) / time.Duration(n))))
			dt, dc, dd := time.Since(t0), cpuTime()-c0, r.delivered()-d0
			s := roundSample{traced: traced}
			if dd > 0 {
				s.eps = float64(dd) / dt.Seconds()
				s.cpuUs = float64(dc.Microseconds()) / float64(dd)
			}
			if rr != nil {
				rr.next()
				s.p50, s.p99, s.samples = rr.round.Quantile(0.50), rr.round.Quantile(0.99), rr.round.Count()
			}
			out = append(out, s)
		}
		r.spansOn.Store(false)
	})
	return out, err
}

func everyRound(int) bool         { return true }
func everyOther(rd int) bool      { return rd%2 == 1 }
func eps(s roundSample) float64   { return s.eps }
func cpuUs(s roundSample) float64 { return s.cpuUs }
func p50(s roundSample) float64   { return s.p50 }
func p99(s roundSample) float64   { return s.p99 }

// pick lists f over the rounds that were (or were not) traced; rounds
// in which nothing was delivered are left out.
func pick(rs []roundSample, traced bool, f func(roundSample) float64) []float64 {
	var out []float64
	for _, s := range rs {
		if s.traced == traced && s.eps > 0 {
			out = append(out, f(s))
		}
	}
	return out
}

// Run executes one benchmark run.
func Run(opts Options) (*Result, error) {
	sp, err := specOf(opts.Workload)
	if err != nil {
		return nil, err
	}
	if opts.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %v", opts.Seconds)
	}
	if opts.OutDir == "" {
		opts.OutDir = "out"
	}
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return nil, err
	}
	deployments := setups
	if opts.Smoke {
		deployments, sp.warmupEvents, sp.gapEvents = 1, 400, 300
	}

	// Inputs: everything the program will see is generated here, from
	// the seed, before the first set-up.
	tGen := time.Now()
	population := sp.population(opts.Seed)
	pools := make([][]poolEvent, sp.publishers)
	var sample []poolEvent // what the layer probes run on
	for i := range pools {
		events := genEvents(opts.Seed+int64(i)*7919, sp.poolSize, sp.patientAttr)
		pools[i] = reference(events, population, sp.local)
		sample = append(sample, pools[i][:min(512, len(pools[i]))]...)
	}
	generate := time.Since(tGen)

	// Set-up, several times over; measure on the last deployment.
	var r *run
	m := &measurement{generate: generate}
	for i := 0; i < deployments; i++ {
		if r != nil {
			r.close()
			runtime.GC() // every deployment starts from the same heap
		}
		r, err = deploy(sp, opts, pools, population)
		if err != nil {
			if r != nil {
				r.close()
			}
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		m.setups = append(m.setups, r.setup.total.Seconds())
	}
	res := &Result{Workload: sp.name, Seed: opts.Seed, Traced: opts.Trace, Metrics: map[string]Metric{}}
	runErr := r.measure(opts, m)
	final := r.snapshot()
	leaked := r.close()
	r.verify(res, final, leaked, runErr)

	if opts.Trace {
		if runErr == nil {
			path := filepath.Join(opts.OutDir, "trace-"+sp.name+".json")
			if err := writeTrace(path, sp.name, m.spansRecorded, m.spans); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
		probes := runProbes(sp, population, sample, opts)
		r.perLayer(res, m, final, leaked, probes)
	} else {
		r.endToEnd(res, m)
	}
	res.Env = r.environment(opts, m)
	return res, nil
}

// measurement is what the phases of one run observed.
type measurement struct {
	setups   []float64
	generate time.Duration

	before           counterSnapshot // at the start of the steady phase
	stolen           float64         // share of the guest's CPU time the host took away meanwhile
	steady, saturate []roundSample
	response         *Histogram // the steady phase's samples, all rounds pooled
	catchupEps       []float64  // per catch-up round
	catchupDelivered uint64

	// Traced runs.
	hops           hopStats
	spans          []span
	spansRecorded  uint64
	creditWait     float64 // share of the saturate phase's traced rounds spent waiting for credit
	memBefore      runtime.MemStats
	memAfter       runtime.MemStats
	loadDeliveries uint64 // deliveries between memBefore and memAfter
	goroutines     int
}

// measure runs the steady, saturate and catch-up phases.
func (r *run) measure(opts Options, m *measurement) error {
	sp := r.spec
	phase := func(share float64) time.Duration {
		return time.Duration(opts.Seconds * share * float64(time.Second))
	}
	m.before = r.snapshot()
	steal0, total0 := hostCPU()
	defer func() {
		if steal, total := hostCPU(); total > total0 {
			m.stolen = float64(steal-steal0) / float64(total-total0)
		}
	}()

	// Steady: a small fixed number of events in flight; response time
	// is measured here, closed-loop. A traced run records spans
	// throughout: they split the response time into its hops.
	rr := newResponseReader(r.lanes)
	r.timing.Store(true)
	var err error
	m.steady, err = r.rounds(sp.steadyCredit, phase(sp.steadyShare), sp.roundLen, everyRound, rr)
	r.timing.Store(false)
	if err != nil {
		return fmt.Errorf("steady: %w", err)
	}
	m.response = rr.all
	if opts.Trace {
		m.spansRecorded, m.spans = r.drainSpans()
		m.hops = reduceSpans(m.spans, sp.local)
	}

	// Saturate: enough credit to keep both cores busy (or, on a lossy
	// link, the link full); throughput and CPU per delivery are
	// measured here. A traced run records spans on every other round,
	// so the same run prices the tracing.
	if opts.Trace {
		runtime.ReadMemStats(&m.memBefore)
	}
	d0 := r.delivered()
	for _, p := range r.pubs {
		p.waitNs = 0
	}
	m.saturate, err = r.rounds(sp.saturateCredit, phase(sp.saturateShare), sp.roundLen, everyOther, nil)
	if err != nil {
		return fmt.Errorf("saturate: %w", err)
	}
	if opts.Trace {
		runtime.ReadMemStats(&m.memAfter)
		m.loadDeliveries = r.delivered() - d0
		m.goroutines = runtime.NumGoroutine()
		var wait int64
		for _, p := range r.pubs {
			wait += p.waitNs
		}
		tracedRounds := len(pick(m.saturate, true, eps))
		roundLen := phase(sp.saturateShare) / time.Duration(len(m.saturate))
		if tracedTime := float64(tracedRounds) * float64(roundLen) * float64(len(r.pubs)); tracedTime > 0 {
			m.creditWait = float64(wait) / tracedTime
		}
		recorded, _ := r.drainSpans() // saturate spans priced the tracing; they are not analysed
		m.spansRecorded += recorded
	}

	// Catch-up: roamers leave, a gap is published, they rejoin under
	// new identities while traffic continues, and must receive the
	// gap exactly once and in order ahead of the live events.
	for i := 0; i < sp.catchupRounds; i++ {
		if err := r.catchupRound(m); err != nil {
			return fmt.Errorf("catch-up round %d: %w", i+1, err)
		}
	}
	return nil
}

func (r *run) catchupRound(m *measurement) error {
	if err := r.leaveRoamers(); err != nil {
		return err
	}
	if err := r.burst(r.spec.saturateCredit, r.spec.gapEvents); err != nil {
		return err
	}
	var owed int64
	for _, s := range r.subs {
		if s.spec.roams {
			owed += s.backlog.Load()
		}
	}
	t0 := r.now()
	if err := r.rejoinRoamers(); err != nil {
		return err
	}
	err := r.publishWhile(r.spec.saturateCredit, 0, func() {
		deadline := time.Now().Add(stallTimeout)
		for time.Now().Before(deadline) {
			behind := false
			for _, s := range r.subs {
				if s.spec.roams && s.backlog.Load() > 0 {
					behind = true
				}
			}
			if !behind {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		return err
	}
	var done int64
	for _, s := range r.subs {
		if s.spec.roams {
			if s.backlog.Load() > 0 {
				return fmt.Errorf("%s never caught up: %d replayed deliveries missing", s.spec.name, s.backlog.Load())
			}
			done = max(done, s.caughtUp.Load())
		}
	}
	if owed > 0 && done > t0 {
		m.catchupEps = append(m.catchupEps, float64(owed)/(float64(done-t0)/1e9))
		m.catchupDelivered += uint64(owed)
	}
	return nil
}
