// Package smc composes the three core SMC components — event bus,
// discovery service, policy service (§II) — into a runnable
// Self-Managed Cell, and provides the device-side counterpart that
// joins a cell and speaks to its bus.
package smc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/amuse/smc/internal/bootstrap"
	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/discovery"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/policy"
	"github.com/amuse/smc/internal/proxy"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/sensor"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

// Config configures a cell.
type Config struct {
	// Cell is the cell's name.
	Cell string
	// Secret is the shared admission secret.
	Secret []byte
	// Matcher selects the pub/sub engine (default: fast).
	Matcher matcher.Kind
	// Lease/Grace/BeaconInterval tune the discovery service.
	Lease          time.Duration
	Grace          time.Duration
	BeaconInterval time.Duration
	// PolicyText is Ponder-lite source loaded at start (optional).
	PolicyText string
	// Reliable tunes the acknowledged hop.
	Reliable reliable.Config
	// PolicyOptions are applied to the policy engine.
	PolicyOptions []policy.Option
	// Epoch distinguishes cell restarts in beacons.
	Epoch uint32
	// Batch tunes outbound coalescing on the cell's member proxies
	// (bus.WithBatching); the zero value is opportunistic coalescing.
	Batch BatchConfig
	// Durable, when non-nil, attaches a durable event log to the bus
	// (bus.WithDurableLog): every admitted publish is retained under
	// the log's retention knobs, and members may bind durable
	// consumers to replay missed events after a disconnect. With
	// Durable.Dir set the log survives a cell crash.
	Durable *store.Config
}

// BatchConfig tunes wire-level event batching: up to Events frames or
// Bytes of payload per batch packet.
//
// On a cell (Config.Batch) it tunes the member proxies' outbound
// coalescing, which is always on: the zero value coalesces whatever is
// already queued for a member — up to 16 events / 8 KiB — and never
// waits for more, so an idle cell sends every event at once as the
// plain single-event packet and only a busy one batches. Events == 1
// turns coalescing off; FlushDelay > 0 makes a partial batch wait that
// long for more events (fuller batches, added latency).
//
// On a device (DeviceConfig.Batch) it enables publish batching, which
// stays opt-in: Events <= 1 leaves it off; zero Bytes and FlushDelay
// take 8 KiB and 1ms (client.WithPublishBatching).
type BatchConfig struct {
	Events     int
	Bytes      int
	FlushDelay time.Duration
}

// Cell is a running Self-Managed Cell.
type Cell struct {
	Bus       *bus.Bus
	Discovery *discovery.Service
	Policy    *policy.Engine
	Registry  *bootstrap.Registry

	cellName   string
	busCh      *reliable.Channel
	discCh     *reliable.Channel
	started    bool
	durableDir string

	// Federation links importing into this cell, registered by
	// Federate for the management plane.
	fedMu sync.Mutex
	feds  []*FederationLink
}

// NewCell wires a cell over two transport endpoints: one for the event
// bus, one for the discovery service (the discovery protocol does not
// share the bus's endpoint, §II-B). Call Start to go live.
func NewCell(busTr, discTr transport.Transport, cfg Config) (*Cell, error) {
	if cfg.Cell == "" {
		return nil, errors.New("smc: empty cell name")
	}
	if cfg.Matcher == "" {
		cfg.Matcher = matcher.KindFast
	}
	m, err := matcher.New(cfg.Matcher)
	if err != nil {
		return nil, err
	}

	reg := bootstrap.NewRegistry()
	registerStandardDevices(reg)

	var busOpts []bus.Option
	if cfg.Batch != (BatchConfig{}) {
		busOpts = append(busOpts, bus.WithBatching(cfg.Batch.Events, cfg.Batch.Bytes, cfg.Batch.FlushDelay))
	}
	if cfg.Durable != nil {
		log, err := store.Open(*cfg.Durable)
		if err != nil {
			return nil, fmt.Errorf("smc: open durable log: %w", err)
		}
		busOpts = append(busOpts, bus.WithDurableLog(log))
	}
	busCh := reliable.New(busTr, cfg.Reliable)
	// From here on the bus owns the channel and the durable log: every
	// failure closes it, which closes the log cleanly — a log left open
	// leaves its directory dirty, so the next open would rotate the
	// epoch and replay every durable consumer from the oldest record.
	b := bus.New(busCh, m, reg, busOpts...)

	eng, err := policy.NewEngine(b, cfg.PolicyOptions...)
	if err != nil {
		_ = b.Close()
		return nil, err
	}
	b.SetAuthorizer(eng)
	if cfg.PolicyText != "" {
		if err := eng.LoadString(cfg.PolicyText); err != nil {
			_ = b.Close()
			return nil, fmt.Errorf("smc: load policies: %w", err)
		}
	}

	discCh := reliable.New(discTr, cfg.Reliable)
	c := &Cell{cellName: cfg.Cell, busCh: busCh, discCh: discCh}
	if cfg.Durable != nil {
		c.durableDir = cfg.Durable.Dir
	}
	disc, err := discovery.NewService(discCh, b, discovery.ServiceConfig{
		Cell:           cfg.Cell,
		Secret:         cfg.Secret,
		BusID:          b.ID(),
		Epoch:          cfg.Epoch,
		BeaconInterval: cfg.BeaconInterval,
		Lease:          cfg.Lease,
		Grace:          cfg.Grace,
		// Management plane: any endpoint may query the cell's health
		// and leak counters (smctap -stats, the chaos harness).
		StatsProvider: c.statsReport,
	})
	if err != nil {
		_ = b.Close()
		_ = discCh.Close()
		return nil, err
	}

	c.Bus, c.Discovery, c.Policy, c.Registry = b, disc, eng, reg
	return c, nil
}

// Start brings the cell online: the bus starts processing and the
// discovery service starts beaconing.
func (c *Cell) Start() {
	if c.started {
		return
	}
	c.started = true
	c.Bus.Start()
	c.Discovery.Start()
}

// Close shuts the cell down immediately: in-flight reliable sends fail
// with ErrClosed. For a graceful stop see Shutdown.
func (c *Cell) Close() error {
	discErr := c.Discovery.Close()
	busErr := c.Bus.Close()
	if discErr != nil {
		return discErr
	}
	return busErr
}

// Shutdown stops the cell gracefully: it first drains in-flight
// reliable deliveries on both endpoints (bounded by drainTimeout
// overall), then closes the cell. A drain that times out is reported,
// but the cell is closed regardless — a hung destination must not keep
// the daemon alive.
func (c *Cell) Shutdown(drainTimeout time.Duration) error {
	deadline := time.Now().Add(drainTimeout)
	drainErr := c.busCh.Drain(drainTimeout)
	if remain := time.Until(deadline); remain > 0 {
		if err := c.discCh.Drain(remain); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	if err := c.Close(); err != nil {
		return err
	}
	return drainErr
}

// ChannelStats snapshots the cell's two reliable endpoints.
func (c *Cell) ChannelStats() (busCh, discCh reliable.Stats) {
	return c.busCh.Stats(), c.discCh.Stats()
}

// LeakCheck reports the combined inbound packet-pool balance of both
// endpoints. On a cleanly shut down (or fully quiesced) cell clean is
// true: every pooled packet acquired was recycled.
func (c *Cell) LeakCheck() (acquired, recycled uint64, clean bool) {
	bs, ds := c.ChannelStats()
	acquired = bs.PacketsAcquired + ds.PacketsAcquired
	recycled = bs.PacketsRecycled + ds.PacketsRecycled
	return acquired, recycled, acquired == recycled
}

// statsReport composes the management-plane snapshot answered to
// PktStatsRequest queries: every layer's Stats under its layer name,
// and one row per member proxy, durable consumer and federation link.
func (c *Cell) statsReport() wire.CellStats {
	st := wire.CellStats{Cell: c.cellName}
	bs, ds := c.ChannelStats()
	st.Add("bus", c.Bus.Stats())
	st.Add("reliable.bus", bs)
	st.Add("reliable.disc", ds)
	st.Add("policy", c.Policy.Stats())
	st.Add("discovery", c.Discovery.Stats())
	if log, rows := c.Bus.LogReport(); c.Bus.DurableLog() != nil {
		st.Add("store", log)
		for _, r := range rows {
			st.Add("durable."+r.Name, r)
		}
	}
	for _, id := range c.Bus.Members() {
		if px := c.Bus.MemberProxy(id); px != nil {
			st.Add("proxy."+id.String(), px.Stats())
		}
	}
	c.fedMu.Lock()
	for _, l := range c.feds {
		st.Add("federation."+l.cfg.Name+"@"+l.remoteCell, l.Stats())
	}
	c.fedMu.Unlock()
	return st
}

// QueryStats asks the discovery service disc for its cell's snapshot
// over ch, as smctap -stats does — no admission needed — and waits up
// to timeout for the answer. Other packets arriving meanwhile are
// dropped.
func QueryStats(ch *reliable.Channel, disc ident.ID, timeout time.Duration) (wire.CellStats, error) {
	if err := ch.Send(disc, wire.PktStatsRequest, nil); err != nil {
		return wire.CellStats{}, fmt.Errorf("stats request: %w", err)
	}
	deadline := time.Now().Add(timeout)
	for {
		pkt, err := ch.RecvTimeout(time.Until(deadline))
		if err != nil {
			return wire.CellStats{}, fmt.Errorf("stats response: %w", err)
		}
		if pkt.Type != wire.PktStatsSnapshot {
			pkt.Release()
			continue
		}
		st, err := wire.DecodeCellStats(pkt.Payload)
		pkt.Release()
		return st, err
	}
}

func (c *Cell) registerFederation(l *FederationLink) {
	c.fedMu.Lock()
	c.feds = append(c.feds, l)
	c.fedMu.Unlock()
}

func (c *Cell) unregisterFederation(l *FederationLink) {
	c.fedMu.Lock()
	c.feds = slices.DeleteFunc(c.feds, func(x *FederationLink) bool { return x == l })
	c.fedMu.Unlock()
}

// DeviceConfig configures a device-side join.
type DeviceConfig struct {
	// Type is the device type ("hr-sensor", "defibrillator", ...);
	// it selects the proxy built for the device inside the cell.
	Type string
	// Name is the human-readable device name.
	Name string
	// Secret is the shared admission secret.
	Secret []byte
	// Cell optionally pins a cell name.
	Cell string
	// Discovery, with Cell set, joins a known discovery service
	// directly instead of waiting for a beacon (unicast-only links).
	Discovery ident.ID
	// JoinTimeout bounds the join (default 5 s).
	JoinTimeout time.Duration
	// Reliable tunes the acknowledged hop.
	Reliable reliable.Config
	// Batch enables publish-side event batching on the device's
	// client (client.WithPublishBatching).
	Batch BatchConfig
	// Durable, when non-empty, binds the device to the named durable
	// consumer on the cell: missed events are replayed from the
	// cell's event log on (re)join. DurablePosition is the resume
	// position from a previous session (client.DurablePosition);
	// leave zero to replay everything retained.
	Durable         string
	DurablePosition client.DurablePosition
}

// clientOpts converts the device config into client options.
func (cfg DeviceConfig) clientOpts() []client.Option {
	var opts []client.Option
	if cfg.Batch.Events > 1 {
		opts = append(opts,
			client.WithPublishBatching(cfg.Batch.Events, cfg.Batch.Bytes, cfg.Batch.FlushDelay))
	}
	if cfg.Durable != "" {
		opts = append(opts, client.WithDurable(cfg.Durable, cfg.DurablePosition))
	}
	return opts
}

// Device is a joined member: a client connection plus the lease
// heartbeats keeping its membership alive.
type Device struct {
	Client *client.Client
	Join   *discovery.JoinResult

	ch *reliable.Channel
	hb *discovery.Heartbeater
}

// JoinCell performs the full device-side flow on one transport
// endpoint: discover a cell via beacons, authenticate, join, start
// heartbeats, and return a ready client bound to the cell's bus. It is
// JoinCellWithRetry with a single attempt.
func JoinCell(tr transport.Transport, cfg DeviceConfig) (*Device, error) {
	return JoinCellWithRetry(context.Background(), tr, cfg, RetryConfig{Attempts: 1})
}

// RetryConfig bounds JoinCellWithRetry's backoff.
type RetryConfig struct {
	// Attempts is the maximum number of join attempts (default 6).
	Attempts int
	// BaseDelay is the first backoff (default 150 ms); it doubles per
	// failed attempt up to MaxDelay (default 3 s). The actual sleep is
	// jittered (see backoff.next).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (rc *RetryConfig) fillDefaults() {
	if rc.Attempts <= 0 {
		rc.Attempts = 6
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 150 * time.Millisecond
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = 3 * time.Second
	}
}

// backoff is the retry delay JoinCellWithRetry and the federation
// supervisor share: it starts at RetryConfig.BaseDelay and doubles per
// wait up to MaxDelay.
type backoff struct{ delay, max time.Duration }

func (rc RetryConfig) backoff() backoff { return backoff{rc.BaseDelay, rc.MaxDelay} }

// next returns the coming wait — jittered uniformly over
// [delay/2, delay], so that a cell restart does not resynchronise
// every waiting device into one thundering join burst — and doubles
// the delay behind it.
func (b *backoff) next() time.Duration {
	wait := b.delay/2 + time.Duration(rand.Int63n(int64(b.delay/2)+1))
	if b.delay *= 2; b.delay > b.max {
		b.delay = b.max
	}
	return wait
}

// JoinCellWithRetry is the device-side join with bounded exponential
// backoff and jitter around the admission exchange: the paper's
// devices join over lossy wireless links where a beacon or verdict is
// routinely lost, so a single attempt is the wrong default for anything
// unattended. The reliable channel (and its stream state) is created
// once and reused across attempts; ctx cancels both the backoff sleeps
// and further attempts. On final failure the channel — and with it the
// transport — is closed.
func JoinCellWithRetry(ctx context.Context, tr transport.Transport, cfg DeviceConfig, rc RetryConfig) (*Device, error) {
	rc.fillDefaults()
	ch := reliable.New(tr, cfg.Reliable)
	var lastErr error
	bo := rc.backoff()
	for attempt := 0; attempt < rc.Attempts; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(bo.next())
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				_ = ch.Close()
				return nil, ctx.Err()
			}
		}
		res, err := discovery.Join(ch, discovery.JoinConfig{
			DeviceType: cfg.Type,
			DeviceName: cfg.Name,
			Secret:     cfg.Secret,
			Cell:       cfg.Cell,
			Discovery:  cfg.Discovery,
			Timeout:    cfg.JoinTimeout,
		})
		if err == nil {
			hb := discovery.StartHeartbeats(ch, res.Discovery, res.Lease/3)
			return &Device{
				Client: client.New(ch, res.Bus, cfg.clientOpts()...),
				Join:   res,
				ch:     ch,
				hb:     hb,
			}, nil
		}
		lastErr = err
		if errors.Is(err, discovery.ErrRejected) || ctx.Err() != nil {
			// Rejection is a verdict, not noise; retrying with the same
			// credentials cannot succeed.
			break
		}
	}
	_ = ch.Close()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return nil, fmt.Errorf("smc: join failed: %w", lastErr)
}

// Leave announces departure to the cell (immediate purge) and shuts
// the device down.
func (d *Device) Leave() error {
	d.hb.Stop()
	leaveErr := discovery.Leave(d.ch, d.Join.Discovery)
	closeErr := d.Client.Close()
	if leaveErr != nil {
		return leaveErr
	}
	return closeErr
}

// Close shuts the device down without announcing departure (the
// "battery died / walked away" path: the cell purges after lease and
// grace lapse).
func (d *Device) Close() error {
	d.hb.Stop()
	return d.Client.Close()
}

// Probe checks that the cell is still reachable and alive. The lease
// heartbeats are fire-and-forget unreliable sends that learn nothing
// when the cell dies; Probe instead sends one reliable heartbeat to
// the discovery service, so the reliable layer retransmits and reports
// the give-up on a dead, partitioned or restarted-elsewhere peer. On a
// live cell it doubles as a lease refresh. Blocks up to the channel's
// give-up horizon.
func (d *Device) Probe() error {
	return d.ch.Send(d.Join.Discovery, wire.PktHeartbeat, nil)
}

// registerStandardDevices installs proxy factories for the synthetic
// medical device types: sensors get the translating sensor proxy,
// actuators get the command-translating actuator proxy subscribed on
// the device's behalf.
func registerStandardDevices(reg *bootstrap.Registry) {
	sensorTypes := []string{
		sensor.DeviceTypeHeartRate,
		sensor.DeviceTypeSpO2,
		sensor.DeviceTypeTemperature,
		sensor.DeviceTypeBP,
		sensor.DeviceTypeGlucose,
	}
	for _, dt := range sensorTypes {
		deviceType := dt
		_ = reg.Register(deviceType, func(_ ident.ID, _ string) proxy.Device {
			return sensor.NewSensorProxyDevice(deviceType)
		})
	}
	actuatorTypes := []string{
		sensor.DeviceTypeDefib,
		sensor.DeviceTypePump,
		sensor.DeviceTypeBedside,
	}
	for _, dt := range actuatorTypes {
		deviceType := dt
		_ = reg.Register(deviceType, func(_ ident.ID, name string) proxy.Device {
			return sensor.NewActuatorProxyDevice(deviceType, name)
		})
	}
}
