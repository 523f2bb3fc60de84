package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/smc"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/transport"
)

const (
	cellName   = "bench-ward"
	busAddr    = 0xB001
	discAddr   = 0xB002
	pubAddr    = 0x1000
	subAddr    = 0x2000
	rejoinAddr = 0x3000
	// roamerRing holds a roamer's expectations while it is away: both
	// publishers' gap plus what credit allows on top.
	roamerRing = 1 << 16
)

var cellSecret = []byte("smcbench")

// setupTimes is where one set-up's time went.
type setupTimes struct {
	build, join, subscribe, warmup, total time.Duration
	joins, subscriptions                  int
}

// run is one deployment of a workload: the cell, its publishers and
// subscribers, and the verifier state that goes with them. A benchmark
// run deploys several times (set-up is timed as a median) and measures
// on the last.
type run struct {
	spec spec
	opts Options
	t0   time.Time

	sw   *transport.Switch
	net  *netsim.Network
	cell *smc.Cell
	log  *store.Log
	dir  string // durable log directory ("" unless the workload is durable)

	pubs    []*publisher
	pubDevs []*smc.Device
	subs    []*subscriber
	subDevs []*smc.Device // nil entries for bus-local subscribers
	lanes   []*lane
	// retired accumulates the counters of clients and proxies that a
	// roamer's Leave destroyed.
	retiredClient client.Stats
	retiredProxy  proxy.Stats
	rejoins       int
	rejoinTime    time.Duration

	ackers  sync.WaitGroup
	abort   chan struct{}
	timing  atomic.Bool // record response times (steady phase only)
	spansOn atomic.Bool // record spans (traced runs, selected rounds)
	system  atomic.Uint64
	setup   setupTimes
}

// now is the run clock: monotonic nanoseconds since the run began. It
// is what rides Event.Stamp, so a response time never crosses a wall
// clock step.
func (r *run) now() int64 { return int64(time.Since(r.t0)) }

func (r *run) attach(addr uint64) (transport.Transport, error) {
	if r.net != nil {
		return r.net.Attach(ident.New(addr))
	}
	return r.sw.Attach(ident.New(addr))
}

// deploy builds the workload's cell and population and warms it up,
// timing each part. pools holds each publisher's generated events.
func deploy(sp spec, opts Options, pools [][]poolEvent, population []subSpec) (*run, error) {
	r := &run{spec: sp, opts: opts, t0: time.Now(), abort: make(chan struct{})}
	start := time.Now()

	// Build: transports, cell, start.
	if sp.lossy {
		r.net = netsim.New(netsim.Perfect, netsim.WithSeed(opts.Seed))
	} else {
		r.sw = transport.NewSwitch()
	}
	cfg := smc.Config{Cell: cellName, Secret: cellSecret, Batch: sp.batch}
	if sp.durable {
		dir, err := os.MkdirTemp(opts.OutDir, "durable-")
		if err != nil {
			return nil, fmt.Errorf("durable dir: %w", err)
		}
		r.dir = dir
		cfg.Durable = &store.Config{
			Dir: dir, SyncEvery: 64, SyncInterval: 5 * time.Millisecond, MaxBytes: 64 << 20,
		}
	}
	busTr, err := r.attach(busAddr)
	if err != nil {
		return r, err
	}
	discTr, err := r.attach(discAddr)
	if err != nil {
		return r, err
	}
	if r.cell, err = smc.NewCell(busTr, discTr, cfg); err != nil {
		return r, fmt.Errorf("new cell: %w", err)
	}
	r.log = r.cell.Bus.DurableLog()
	r.cell.Start()
	r.setup.build = time.Since(start)

	// Population state.
	for i := range pools {
		p := newPublisher(i, pools[i])
		if opts.Trace {
			p.spans = newSpanBuf()
		}
		r.pubs = append(r.pubs, p)
	}
	for _, ss := range population {
		s := &subscriber{spec: ss}
		capacity := 2 * maxCredit
		if ss.roams {
			capacity = roamerRing
		}
		if sp.local {
			capacity = 8 * maxCredit // several deliveries per event and subscriber
		}
		for range r.pubs {
			s.rings = append(s.rings, newRing(capacity))
		}
		s.online.Store(true)
		r.subs = append(r.subs, s)
	}
	nLanes := len(r.subs)
	if sp.local {
		nLanes = len(r.pubs)
	}
	for i := 0; i < nLanes; i++ {
		l := &lane{idx: i, hist: newLiveHistogram()}
		if opts.Trace {
			l.spans = newSpanBuf()
		}
		r.lanes = append(r.lanes, l)
	}

	// Join, then subscribe.
	t := time.Now()
	if err := r.joinAll(); err != nil {
		return r, err
	}
	r.setup.join = time.Since(t)
	r.setup.joins = len(r.pubs) + len(r.subs)
	t = time.Now()
	if err := r.subscribeAll(); err != nil {
		return r, err
	}
	r.setup.subscribe = time.Since(t)

	// Warm up: a fixed number of events at the saturate credit, so
	// set-up is seconds of the same work on every run, not
	// milliseconds of whatever the scheduler did.
	t = time.Now()
	if err := r.burst(sp.saturateCredit, sp.warmupEvents); err != nil {
		return r, fmt.Errorf("warm-up: %w", err)
	}
	r.setup.warmup = time.Since(t)
	r.setup.total = time.Since(start)

	if sp.lossy {
		// Events travel publisher → bus → subscriber over lossyLAN;
		// what comes back the other way (acknowledgements) sees the
		// same loss and latency but arrives in the order it was sent.
		bus := r.cell.Bus.ID()
		for _, d := range r.pubDevs {
			r.net.SetLinkProfile(d.Client.ID(), bus, lossyLAN)
			r.net.SetLinkProfile(bus, d.Client.ID(), lossyLANReturn)
		}
		for _, d := range r.subDevs {
			r.net.SetLinkProfile(bus, d.Client.ID(), lossyLAN)
			r.net.SetLinkProfile(d.Client.ID(), bus, lossyLANReturn)
		}
	}
	return r, nil
}

// devices lists the members currently joined: publishers, then
// subscribers (none on a bus-local workload).
func (r *run) devices() []*smc.Device {
	devs := append([]*smc.Device(nil), r.pubDevs...)
	for _, d := range r.subDevs {
		if d != nil {
			devs = append(devs, d)
		}
	}
	return devs
}

// joinAll admits publishers and subscribers: bus-local services are
// registered, members go through real discovery and admission with the
// cell and its discovery service pinned (no beacon-phase wait).
func (r *run) joinAll() error {
	if r.spec.local {
		for _, p := range r.pubs {
			svc := r.cell.Bus.Local(fmt.Sprintf("pub-%d", p.idx))
			p.id = svc.ID()
			p.send = func(e *event.Event) (*reliable.Completion, error) { return nil, svc.Publish(e) }
		}
		r.subDevs = make([]*smc.Device, len(r.subs))
		return nil
	}
	for _, p := range r.pubs {
		dev, err := r.join(pubAddr+uint64(p.idx), fmt.Sprintf("pub-%d", p.idx), "", client.DurablePosition{}, r.spec.batch)
		if err != nil {
			return err
		}
		r.pubDevs = append(r.pubDevs, dev)
		p.id = dev.Client.ID()
		p.send = dev.Client.PublishAsync
	}
	for i, s := range r.subs {
		dev, err := r.join(subAddr+uint64(i), s.spec.name, s.spec.durable, client.DurablePosition{}, smc.BatchConfig{})
		if err != nil {
			return err
		}
		r.subDevs = append(r.subDevs, dev)
	}
	return nil
}

func (r *run) join(addr uint64, name, durable string, pos client.DurablePosition, batch smc.BatchConfig) (*smc.Device, error) {
	tr, err := r.attach(addr)
	if err != nil {
		return nil, err
	}
	dev, err := smc.JoinCell(tr, smc.DeviceConfig{
		Type: "generic", Name: name, Secret: cellSecret,
		Cell: cellName, Discovery: r.cell.Discovery.ID(),
		Batch: batch, Durable: durable, DurablePosition: pos,
	})
	if err != nil {
		return nil, fmt.Errorf("join %s: %w", name, err)
	}
	return dev, nil
}

// subscribeAll installs every subscriber's filters (each acknowledged)
// and starts the members' consumer goroutines.
func (r *run) subscribeAll() error {
	for i, s := range r.subs {
		r.setup.subscriptions += len(s.spec.filters)
		if r.spec.local {
			svc := r.cell.Bus.Local(s.spec.name)
			handler := func(e *event.Event) { r.deliver(nil, s, e) }
			for _, f := range s.spec.filters {
				if err := svc.Subscribe(f, handler); err != nil {
					return fmt.Errorf("subscribe %s: %w", s.spec.name, err)
				}
			}
			continue
		}
		if err := r.subscribe(r.subDevs[i], s); err != nil {
			return err
		}
		r.startConsumer(i)
	}
	return nil
}

func (r *run) subscribe(dev *smc.Device, s *subscriber) error {
	for _, f := range s.spec.filters {
		if err := dev.Client.Subscribe(f); err != nil {
			return fmt.Errorf("subscribe %s: %w", s.spec.name, err)
		}
	}
	return nil
}

// startConsumer runs subscriber i's consumer loop on its current
// device until that device's client closes.
func (r *run) startConsumer(i int) {
	s, l, c := r.subs[i], r.lanes[i], r.subDevs[i].Client
	done := make(chan struct{})
	s.consumerDone = done
	go func() {
		defer close(done)
		for e := range c.Events() {
			s.consumed.Add(1)
			if e.Cursor != 0 {
				s.lastCursor = e.Cursor
			}
			r.deliver(l, s, e)
			e.Release()
		}
	}()
}

// burst has every publisher send limit events under the given credit
// and returns once all of them have been delivered.
func (r *run) burst(credit int, limit uint64) error {
	return r.publishWhile(credit, limit, nil)
}

// publishWhile starts every publisher under the given credit, lets them
// run while during does (or, with during nil, until each has sent limit
// events), then stops them and waits until everything published has
// been delivered. A stall — credit that never comes back — aborts the
// run.
func (r *run) publishWhile(credit int, limit uint64, during func()) error {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, p := range r.pubs {
		wg.Add(1)
		go func(p *publisher) {
			defer wg.Done()
			p.publish(r, credit, limit, &stop)
		}(p)
	}
	if during != nil {
		during()
		stop.Store(true)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(stallTimeout):
		report := r.stallReport() // while the goroutines are still where they stalled
		close(r.abort)
		<-done
		return errors.New("stalled: " + report)
	}
}

// stallReport says what the verifier was still waiting for when
// published events stopped coming back.
func (r *run) stallReport() string {
	var b strings.Builder
	var mismatched uint64
	for _, l := range r.lanes {
		mismatched += l.failed.Load()
	}
	bs, _ := r.cell.ChannelStats()
	fmt.Fprintf(&b, "%d deliveries verified, %d mismatched, %d system events, %d members, bus endpoint %d send failures %d stream resets;",
		r.delivered(), mismatched, r.system.Load(), len(r.cell.Discovery.Members()), bs.Failures, bs.StreamResets)
	for _, p := range r.pubs {
		fmt.Fprintf(&b, " pub-%d: %d publish failures;", p.idx, p.failed.Load())
	}
	b.WriteString(" still expected:")
	for i, s := range r.subs {
		for pi, rg := range s.rings {
			if n := rg.len(); n > 0 {
				fmt.Fprintf(&b, " %s<-pub-%d:%d", s.spec.name, pi, n)
			}
		}
		if d := r.subDevs[i]; d != nil {
			fmt.Fprintf(&b, " (%s: client received %d, consumed %d", s.spec.name, d.Client.Stats().EventsReceived, s.consumed.Load())
			if px := r.cell.Bus.MemberProxy(d.Client.ID()); px != nil {
				st := px.Stats()
				fmt.Fprintf(&b, ", proxy enqueued %d delivered %d queued %d redeliveries %d", st.Enqueued, st.Delivered, px.QueueLen(), st.Redeliveries)
			}
			b.WriteString(")")
		}
	}
	// Where every goroutine was is the other half of the story.
	path := filepath.Join(r.opts.OutDir, "stall-goroutines.txt")
	if f, err := os.Create(path); err == nil {
		_ = pprof.Lookup("goroutine").WriteTo(f, 2)
		_ = f.Close()
		fmt.Fprintf(&b, "; goroutine dump in %s", path)
	}
	return b.String()
}

// leaveRoamers detaches every roaming subscriber: it goes offline,
// leaves the cell and its consumer drains. Nothing may be in flight.
func (r *run) leaveRoamers() error {
	for i, s := range r.subs {
		if !s.spec.roams {
			continue
		}
		s.online.Store(false)
		dev := r.subDevs[i]
		r.retire(dev)
		if err := dev.Leave(); err != nil {
			return fmt.Errorf("leave %s: %w", s.spec.name, err)
		}
		<-s.consumerDone // the inbox is drained; lastCursor is final
	}
	return nil
}

// retire folds a departing device's client and proxy counters into the
// run's totals before Leave destroys them.
func (r *run) retire(dev *smc.Device) {
	addClientStats(&r.retiredClient, dev.Client.Stats())
	if px := r.cell.Bus.MemberProxy(dev.Client.ID()); px != nil {
		addProxyStats(&r.retiredProxy, px.Stats())
	}
}

// rejoinRoamers brings every roamer back under a new identity, resuming
// from the cursor of the last delivery it consumed.
func (r *run) rejoinRoamers() error {
	for i, s := range r.subs {
		if !s.spec.roams {
			continue
		}
		pos := client.DurablePosition{Epoch: r.subDevs[i].Client.DurablePosition().Epoch, Cursor: s.lastCursor}
		s.online.Store(true)
		t := time.Now()
		r.rejoins++
		dev, err := r.join(rejoinAddr+uint64(r.rejoins), s.spec.name, s.spec.durable, pos, smc.BatchConfig{})
		if err != nil {
			return err
		}
		r.rejoinTime += time.Since(t)
		r.subDevs[i] = dev
		if err := r.subscribe(dev, s); err != nil {
			return err
		}
		r.startConsumer(i)
	}
	return nil
}

// close tears the deployment down and reports the durable log's leaked
// segments (readable only once the log is closed).
func (r *run) close() (leakedSegments uint64) {
	for _, d := range r.devices() {
		_ = d.Close() // teardown: nothing is in flight and the cell goes next
	}
	if r.cell != nil {
		_ = r.cell.Close()
	}
	if r.sw != nil {
		_ = r.sw.Close()
	}
	if r.net != nil {
		_ = r.net.Close()
	}
	for _, s := range r.subs {
		if s.consumerDone != nil {
			<-s.consumerDone
		}
	}
	if r.log != nil {
		leakedSegments = r.log.Stats().Leaked()
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
	return leakedSegments
}

// fsType names the filesystem holding dir, from /proc/mounts (the
// longest mount point that is a prefix of dir wins); "unknown" where
// that cannot be read.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, bestLen := "unknown", -1
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := strings.TrimSuffix(f[1], "/")
		if (abs == mnt || strings.HasPrefix(abs, mnt+"/")) && len(mnt) > bestLen {
			best, bestLen = f[2], len(mnt)
		}
	}
	return best
}

func addClientStats(dst *client.Stats, s client.Stats) {
	dst.Published += s.Published
	dst.EventsReceived += s.EventsReceived
	dst.DurableReceived += s.DurableReceived
	dst.DurableDeduped += s.DurableDeduped
}

func addProxyStats(dst *proxy.Stats, s proxy.Stats) {
	dst.Enqueued += s.Enqueued
	dst.Delivered += s.Delivered
	dst.Redeliveries += s.Redeliveries
	dst.DroppedOldest += s.DroppedOldest
	dst.Batches += s.Batches
	dst.BatchedEvents += s.BatchedEvents
}
