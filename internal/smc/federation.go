package smc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/transport"
)

// Federation: the paper's introduction requires that self-managed
// cells "be composable to form larger cells but also need to
// collaborate and integrate with each other in peer-to-peer
// relationships". A FederationLink realises the peer-to-peer half: it
// joins a remote cell as an ordinary member (full discovery and
// authentication), subscribes there with a content filter, and
// republishes matching events into the home cell's bus tagged with
// their origin.
//
// Robustness contract: a link is supervised. It joins the remote cell
// as a durable consumer (stable per-link consumer name) when the
// remote bus has a durable log, remembers its last-imported resume
// cursor (persisted in a small cursor file under the home cell's
// durable directory, epoch-checked), and reconnects with bounded
// exponential backoff plus jitter when the remote membership dies —
// remote restarts, partitions, and kills all converge to
// resume-from-cursor replay. An epoch mismatch at resume means the
// remote log's cursor space rewound: the bus replays from the oldest
// retained record and the home cell's publisher dedup window absorbs
// the redelivery (at-least-once transport, exactly-once delivery to
// home subscribers). Backpressure on the home bus pauses the import
// pump (LocalService.Publish waits for room); only a closed home bus
// drops an import.

// AttrFederatedFrom marks events imported from another cell; links
// never re-export already-federated events, so one-hop federation
// cannot loop.
const AttrFederatedFrom = "federated-from"

// fedPersistEvery is the write-behind cadence of the resume-cursor
// file: the cursor is persisted every this many processed events (and
// on every disconnect/Close). A stale persisted cursor only widens
// replay, never loses events.
const fedPersistEvery = 32

// fedProbeMisses is how many consecutive probe failures count as
// remote death.
const fedProbeMisses = 2

// FederateConfig configures a federation link.
type FederateConfig struct {
	// Name identifies the gateway device in the remote cell.
	Name string
	// RemoteSecret is the remote cell's admission secret.
	RemoteSecret []byte
	// RemoteCell optionally pins the remote cell's name.
	RemoteCell string
	// Import selects which remote events are pulled into the home
	// cell. A nil filter imports nothing (and is rejected).
	Import *event.Filter
	// Device tuning for the remote membership.
	Device DeviceConfig
	// Dial opens a fresh transport to the remote cell for a reconnect
	// attempt. Without it the link cannot redial: a dead remote
	// membership parks the link (Connected=false in stats) instead of
	// recovering.
	Dial func() (transport.Transport, error)
	// Retry tunes the per-cycle join backoff (JoinCellWithRetry
	// semantics); zero values take the defaults.
	Retry RetryConfig
	// ProbeInterval is the liveness probe cadence. Lease heartbeats
	// are fire-and-forget unreliable sends, so a killed, partitioned
	// or restarted remote leaves the membership silently parked —
	// Events() never closes. The link therefore sends a reliable
	// heartbeat to the remote discovery service this often; the
	// reliable layer retransmits and eventually gives up on an
	// unreachable peer, which is the death signal the supervisor
	// converts into a reconnect cycle. Default: half the remote lease,
	// floored at 50ms.
	ProbeInterval time.Duration
}

// FederationStats is a point-in-time snapshot of one link.
type FederationStats struct {
	RemoteCell string
	Connected  bool
	Imported   uint64
	Skipped    uint64
	// Dropped counts imports a closed home bus refused.
	Dropped      uint64
	Reconnects   uint64
	ResumeEpoch  uint64
	ResumeCursor uint64
}

// FederationLink is a live one-directional import of remote events.
type FederationLink struct {
	home *Cell
	cfg  FederateConfig
	// consumer is the durable consumer name in the remote cell,
	// "fed-<home>-<name>": stable across link restarts, it is the
	// identity the resume cursor belongs to.
	consumer string

	local      *bus.LocalService
	remoteCell string
	cursorPath string

	imported     atomic.Uint64
	skipped      atomic.Uint64
	dropped      atomic.Uint64
	reconnects   atomic.Uint64
	connected    atomic.Bool
	resumeEpoch  atomic.Uint64
	resumeCursor atomic.Uint64

	// sincePersist is the supervisor-goroutine-local write-behind
	// counter for the cursor file.
	sincePersist int

	devMu sync.Mutex
	dev   *Device

	ctx      context.Context
	cancel   context.CancelFunc
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Federate joins the remote cell reachable over remoteTr and begins
// importing events matching cfg.Import into the home cell. The initial
// join is synchronous (an unreachable remote fails fast); after that
// the link supervises itself, reconnecting via cfg.Dial when the
// remote membership dies.
func Federate(home *Cell, remoteTr transport.Transport, cfg FederateConfig) (*FederationLink, error) {
	if cfg.Import == nil {
		return nil, errors.New("smc: federation needs an import filter")
	}
	if cfg.Name == "" {
		cfg.Name = "federation-gateway"
	}
	cfg.Retry.fillDefaults()

	l := &FederationLink{
		home:     home,
		cfg:      cfg,
		consumer: "fed-" + home.cellName + "-" + cfg.Name,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	if dir := home.durableDir; dir != "" {
		l.cursorPath = fedCursorPath(dir, l.consumer)
		if epoch, cursor, ok := readFedCursor(l.cursorPath); ok {
			l.resumeEpoch.Store(epoch)
			l.resumeCursor.Store(cursor)
		}
	}

	dev, err := JoinCell(remoteTr, l.deviceConfig())
	if err != nil {
		l.cancel()
		return nil, fmt.Errorf("smc: federation join: %w", err)
	}
	if err := dev.Client.Subscribe(cfg.Import); err != nil {
		_ = dev.Close()
		l.cancel()
		return nil, fmt.Errorf("smc: federation subscribe: %w", err)
	}
	l.remoteCell = dev.Join.Cell
	l.local = home.Bus.Local("federation:" + dev.Join.Cell)
	l.setDev(dev)
	home.registerFederation(l)
	go l.run(dev)
	return l, nil
}

// deviceConfig builds the remote membership config, resuming the
// durable consumer from the link's current position.
func (l *FederationLink) deviceConfig() DeviceConfig {
	devCfg := l.cfg.Device
	devCfg.Type = "federation-gateway"
	devCfg.Name = l.cfg.Name
	devCfg.Secret = l.cfg.RemoteSecret
	devCfg.Cell = l.cfg.RemoteCell
	devCfg.Durable = l.consumer
	devCfg.DurablePosition = client.DurablePosition{
		Epoch:  l.resumeEpoch.Load(),
		Cursor: l.resumeCursor.Load(),
	}
	return devCfg
}

// Stats snapshots the link.
func (l *FederationLink) Stats() FederationStats {
	return FederationStats{
		RemoteCell:   l.remoteCell,
		Connected:    l.connected.Load(),
		Imported:     l.imported.Load(),
		Skipped:      l.skipped.Load(),
		Dropped:      l.dropped.Load(),
		Reconnects:   l.reconnects.Load(),
		ResumeEpoch:  l.resumeEpoch.Load(),
		ResumeCursor: l.resumeCursor.Load(),
	}
}

func (l *FederationLink) setDev(dev *Device) {
	l.devMu.Lock()
	l.dev = dev
	l.devMu.Unlock()
}

func (l *FederationLink) getDev() *Device {
	l.devMu.Lock()
	defer l.devMu.Unlock()
	return l.dev
}

// run supervises the link: pump until the remote membership dies, then
// reconnect with backoff and pump again. Only Close ends the loop (or
// a dead remote with no Dial configured).
func (l *FederationLink) run(dev *Device) {
	defer close(l.done)
	for {
		l.connected.Store(true)
		l.pump(dev)
		l.connected.Store(false)
		l.persistCursor()
		select {
		case <-l.stop:
			return // Close tears the device down
		default:
		}
		// Events() closed underneath us: the remote restarted, the
		// membership lapsed, or the transport died. The old pump exit
		// here was the permanent-death bug — now the link reconnects
		// and resumes from its cursor.
		l.setDev(nil)
		_ = dev.Close()
		if l.cfg.Dial == nil {
			return // cannot redial; parked (Connected=false)
		}
		var ok bool
		if dev, ok = l.reconnect(); !ok {
			return
		}
		l.setDev(dev)
		l.reconnects.Add(1)
	}
}

// pump imports events until the remote membership dies or the link
// stops. Death has two faces: Events() closing (local shutdown) and
// the liveness probe reporting an unreachable remote.
func (l *FederationLink) pump(dev *Device) {
	probeStop := make(chan struct{})
	probeDead := make(chan struct{})
	go l.probe(dev, probeStop, probeDead)
	defer close(probeStop)
	events := dev.Client.Events()
	for {
		select {
		case e, ok := <-events:
			if !ok {
				return // remote client shut down
			}
			l.importEvent(dev, e)
		case <-probeDead:
			return // remote unreachable: reconnect
		case <-l.stop:
			return
		}
	}
}

// probe detects remote death. The Heartbeater's lease refreshes are
// unreliable sends with discarded errors, so they carry no liveness
// information back; this loop sends a reliable heartbeat to the remote
// discovery service every ProbeInterval instead. On a live remote it
// doubles as a lease refresh; on a dead one the reliable layer's
// retransmission budget runs out and fedProbeMisses consecutive give-ups
// close probeDead.
func (l *FederationLink) probe(dev *Device, stop <-chan struct{}, dead chan<- struct{}) {
	interval := l.cfg.ProbeInterval
	if interval <= 0 {
		interval = dev.Join.Lease / 2
	}
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	misses := 0
	for {
		select {
		case <-stop:
			return
		case <-l.stop:
			return
		case <-t.C:
		}
		if err := dev.Probe(); err != nil {
			if misses++; misses >= fedProbeMisses {
				close(dead)
				return
			}
		} else {
			misses = 0
		}
	}
}

func (l *FederationLink) importEvent(dev *Device, e *event.Event) {
	cursor := e.Cursor
	if cursor != 0 {
		// Advance the resume position for every durable delivery —
		// including skipped ones, so loop-prevention skips are not
		// replayed forever on reconnect.
		l.resumeEpoch.Store(dev.Client.DurablePosition().Epoch)
		l.resumeCursor.Store(cursor)
	}
	if e.Has(AttrFederatedFrom) {
		l.skipped.Add(1)
		e.Release()
		l.maybePersist()
		return
	}
	// Clone promotes the borrowed decode to owned strings; the
	// original (and its packet) recycle here.
	imported := e.Clone()
	imported.SetStr(AttrFederatedFrom, l.remoteCell)
	imported.SetInt("origin-sender", int64(e.Sender))
	// Give the import an idempotent identity so at-least-once replay
	// after a reconnect (or a stale persisted cursor) dedups to
	// exactly-once in the home cell's log: keep the origin publisher's
	// dedup ID (mixed with the origin sender — all imports share the
	// link's local sender) or derive one from the remote log position.
	if v, ok := e.Get(store.AttrDedup); ok {
		if d, isInt := v.Int(); isInt {
			imported.SetInt(store.AttrDedup, mixDedup(uint64(e.Sender), uint64(d)))
		}
	} else if cursor != 0 {
		imported.SetInt(store.AttrDedup, mixDedup(l.resumeEpoch.Load(), cursor))
	}
	e.Release()
	if err := l.local.Publish(imported); err == nil {
		l.imported.Add(1)
	} else {
		imported.Release()
		l.dropped.Add(1)
	}
	l.maybePersist()
}

// reconnect redials the remote cell with bounded exponential backoff
// plus jitter until a join succeeds or the link closes. Each cycle is
// Dial + JoinCellWithRetry + re-Subscribe (durable filter state on the
// remote bus is in-memory and gone after a remote restart).
func (l *FederationLink) reconnect() (*Device, bool) {
	bo := l.cfg.Retry.backoff()
	for {
		if tr, err := l.cfg.Dial(); err == nil {
			// A failed join closes the channel and transport itself.
			dev, err := JoinCellWithRetry(l.ctx, tr, l.deviceConfig(), l.cfg.Retry)
			if err == nil {
				if err := dev.Client.Subscribe(l.cfg.Import); err == nil {
					return dev, true
				}
				_ = dev.Close()
			}
		}
		select {
		case <-l.stop:
			return nil, false
		case <-time.After(bo.next()):
		}
	}
}

func (l *FederationLink) maybePersist() {
	if l.cursorPath == "" {
		return
	}
	l.sincePersist++
	if l.sincePersist >= fedPersistEvery {
		l.sincePersist = 0
		l.persistCursor()
	}
}

// persistCursor writes the resume position to the cursor file
// (write-behind: a stale file only widens replay, and the home log's
// dedup window absorbs the overlap).
func (l *FederationLink) persistCursor() {
	if l.cursorPath == "" {
		return
	}
	epoch, cursor := l.resumeEpoch.Load(), l.resumeCursor.Load()
	if epoch == 0 && cursor == 0 {
		return
	}
	_ = writeFedCursor(l.cursorPath, epoch, cursor)
}

// mixDedup folds a (space, id) pair into one int64 dedup ID with a
// splitmix64-style finaliser, so imported events keep an idempotent
// identity without colliding across origin publishers or epochs.
func mixDedup(space, id uint64) int64 {
	x := space*0x9e3779b97f4a7c15 ^ id
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Close leaves the remote cell, stops the supervisor, and persists the
// resume cursor.
func (l *FederationLink) Close() error {
	var err error
	l.stopOnce.Do(func() {
		close(l.stop)
		l.cancel()
		<-l.done
		l.home.unregisterFederation(l)
		l.persistCursor()
		if dev := l.getDev(); dev != nil {
			err = dev.Leave()
		}
	})
	return err
}
