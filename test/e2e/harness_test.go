// Package e2e is the black-box chaos harness: it compiles the real
// daemon binaries, spawns cells as separate processes over loopback
// UDP, drives a seeded weighted random action stream against them, and
// verifies convergence invariants at quiesce. See README.md in this
// directory for the methodology and the regression-seed workflow.
package e2e

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/amuse/smc/internal/client"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/reliable"
	smcpkg "github.com/amuse/smc/internal/smc"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/transport"
	"github.com/amuse/smc/internal/wire"
)

// ---------------------------------------------------------------------
// Binary build (once per test run)
// ---------------------------------------------------------------------

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildBinaries compiles smcd, sensorsim and smctap exactly once per
// run and returns the directory holding them.
func buildBinaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "smc-e2e-bin-")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", buildDir,
			"./cmd/smcd", "./cmd/sensorsim", "./cmd/smctap")
		cmd.Dir = "../.." // module root relative to test/e2e
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building binaries: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildDir
}

// ---------------------------------------------------------------------
// Cell processes
// ---------------------------------------------------------------------

// cellProc is one smcd process. A cell slot keeps its name and secret
// across kill/restart; the process, its IDs and its ports change.
type cellProc struct {
	slot   int
	name   string
	secret string

	mu       sync.Mutex
	cmd      *exec.Cmd
	alive    bool
	discID   ident.ID
	busID    ident.ID
	lines    []string
	readyCh  chan struct{}
	exitedCh chan struct{}
	exitErr  error
}

const (
	cellLease = 1 * time.Second
	cellGrace = 2 * time.Second
)

// startCell launches a fresh smcd for the slot and waits for its ready
// line (which is the only way to learn the ephemeral ports).
func (h *harness) startCell(c *cellProc, policyFile string) error {
	args := []string{
		"-cell", c.name, "-secret", c.secret,
		"-addr", "127.0.0.1:0", "-disc-addr", "127.0.0.1:0",
		"-lease", cellLease.String(), "-grace", cellGrace.String(),
		"-drain", "5s",
	}
	if *chaosBatch > 0 {
		args = append(args, "-batch", strconv.Itoa(*chaosBatch))
	}
	if *chaosDurable || *chaosFed {
		// The per-slot directory survives kill/restart, so a restarted
		// daemon recovers its log from disk (crash recovery rotates the
		// epoch; a graceful stop keeps it).
		args = append(args, "-durable-dir", filepath.Join(h.tmpDir, "durlog-"+c.name))
	}
	if *chaosFed {
		// Exercise the write-behind tail-sync policy under SIGKILL: the
		// active segment's appended tail is fsynced on both an append
		// cadence and a timer, so a crashed cell recovers mid-segment
		// events instead of only sealed segments.
		args = append(args, "-durable-sync-every", "8", "-durable-sync-interval", "25ms")
	}
	if policyFile != "" {
		args = append(args, "-policies", policyFile)
	}
	cmd := exec.Command(filepath.Join(h.binDir, "smcd"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return err
	}
	c.mu.Lock()
	c.cmd = cmd
	c.alive = true
	c.lines = nil
	c.readyCh = make(chan struct{})
	c.exitedCh = make(chan struct{})
	c.exitErr = nil
	ready := c.readyCh
	exited := c.exitedCh
	c.mu.Unlock()

	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.lines = append(c.lines, line)
			if strings.HasPrefix(line, "ready ") {
				if err := c.parseReady(line); err == nil {
					select {
					case <-ready:
					default:
						close(ready)
					}
				}
			}
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.exitErr = cmd.Wait()
		c.mu.Unlock()
		close(exited)
	}()

	select {
	case <-ready:
		h.logf("cell %s up: discovery=%s", c.name, c.discID)
		return nil
	case <-exited:
		return fmt.Errorf("cell %s exited before ready: %v\n%s",
			c.name, c.exitErr, strings.Join(c.snapshotLines(), "\n"))
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		return fmt.Errorf("cell %s: no ready line in 15s", c.name)
	}
}

// parseReady extracts the service IDs from the machine-readable line:
//
//	ready cell=w1 bus=<id> bus-addr=<addr> discovery=<id> disc-addr=<addr>
//
// Caller holds c.mu.
func (c *cellProc) parseReady(line string) error {
	for _, f := range strings.Fields(line)[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "bus":
			id, err := ident.Parse(v)
			if err != nil {
				return err
			}
			c.busID = id
		case "discovery":
			id, err := ident.Parse(v)
			if err != nil {
				return err
			}
			c.discID = id
		}
	}
	if c.discID == 0 || c.busID == 0 {
		return fmt.Errorf("ready line missing ids: %q", line)
	}
	return nil
}

func (c *cellProc) snapshotLines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

func (c *cellProc) discovery() ident.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.discID
}

// stopGraceful SIGTERMs the daemon and verifies the shutdown contract:
// exit status 0 and a balanced leakcheck line. Any deviation is an
// invariant violation (I4).
func (h *harness) stopGraceful(c *cellProc) error {
	c.mu.Lock()
	cmd, alive, exited := c.cmd, c.alive, c.exitedCh
	c.alive = false
	c.mu.Unlock()
	if !alive || cmd == nil {
		return nil
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("cell %s: signal: %w", c.name, err)
	}
	select {
	case <-exited:
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		return fmt.Errorf("invariant I4: cell %s did not exit within 20s of SIGTERM", c.name)
	}
	c.mu.Lock()
	exitErr := c.exitErr
	lines := append([]string(nil), c.lines...)
	c.mu.Unlock()
	if exitErr != nil {
		return fmt.Errorf("invariant I4: cell %s exited non-zero on graceful stop: %v\n%s",
			c.name, exitErr, strings.Join(lines, "\n"))
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "leakcheck ") {
			if !strings.Contains(line, "leaked=0") {
				return fmt.Errorf("invariant I4: cell %s pool leak: %s", c.name, line)
			}
			return nil
		}
	}
	return fmt.Errorf("invariant I4: cell %s printed no leakcheck line", c.name)
}

// killCell SIGKILLs the daemon: the crash the invariants must survive.
func (h *harness) killCell(c *cellProc) {
	c.mu.Lock()
	cmd, alive, exited := c.cmd, c.alive, c.exitedCh
	c.alive = false
	c.mu.Unlock()
	if !alive || cmd == nil {
		return
	}
	// A daemon that is already gone died on its own — that is a crash
	// the harness must surface, not a kill.
	select {
	case <-exited:
		c.mu.Lock()
		exitErr, lines := c.exitErr, append([]string(nil), c.lines...)
		c.mu.Unlock()
		tail := lines
		if len(tail) > 30 {
			tail = tail[len(tail)-30:]
		}
		h.logf("cell %s had ALREADY exited: %v\n%s", c.name, exitErr, strings.Join(tail, "\n"))
		return
	default:
	}
	_ = cmd.Process.Kill()
	<-exited
	h.logf("cell %s killed", c.name)
}

// ---------------------------------------------------------------------
// Actors
// ---------------------------------------------------------------------

// actor is a harness-owned client over a real UDP socket. Its oracle
// identity (the "pub" attribute it stamps on events) survives device
// restarts; its per-incarnation UDP port is kept when possible so that
// same-ID rejoin exercises the sender-side Forget/epoch path.
type actor struct {
	id   int
	cell int
	port int

	dev        *smcpkg.Device
	tr         *transport.UDPTransport
	alive      bool // device usable
	left       bool // voluntarily gone for good
	subscribed bool
	partition  bool
	lossy      bool   // degraded link (loss + reorder) installed
	durable    string // durable consumer name; "" for plain actors
	filter     *event.Filter

	nextN int64

	mu           sync.Mutex
	recv         map[int][]int64 // pub -> n sequence, in arrival order
	fence        map[int]bool    // pub -> fence observed
	fedFence     map[int]int     // pub -> federated fence arrivals (I6)
	durEpoch     uint64          // log epoch of the recorded stream
	durCursor    uint64          // highest cursor consumed this epoch
	durViolation string          // first exactly-once violation observed
}

// actorReliableCfg keeps the give-up horizon short (~1 s) so killed and
// partitioned peers do not stall the action loop or the final drain.
var actorReliableCfg = reliable.Config{
	RetryTimeout:    30 * time.Millisecond,
	MaxRetryTimeout: 200 * time.Millisecond,
	MaxRetries:      8,
}

// join (re)connects the actor to its cell, preferring its previous UDP
// port, and restarts its receive loop. Re-subscribes if the actor held
// a subscription.
func (h *harness) joinActor(a *actor) error {
	c := h.cells[a.cell]
	if !h.cellAlive(a.cell) {
		return fmt.Errorf("actor %d: cell %s down", a.id, c.name)
	}
	var tr *transport.UDPTransport
	var err error
	if a.port != 0 {
		opt, _ := transport.WithAddr(":" + strconv.Itoa(a.port)) // a valid port cannot fail
		tr, err = transport.NewUDPTransport(opt)
	}
	if tr == nil {
		if tr, err = transport.NewUDPTransport(); err != nil {
			return fmt.Errorf("actor %d transport: %w", a.id, err)
		}
	}
	a.port = tr.LocalAddr().Port
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg := smcpkg.DeviceConfig{
		Type: "generic", Name: fmt.Sprintf("actor-%d", a.id),
		Secret: []byte(c.secret), Cell: c.name, Discovery: c.discovery(),
		JoinTimeout: 2 * time.Second,
		Reliable:    actorReliableCfg,
	}
	if a.durable != "" {
		// Resume from the cursor of the last event the oracle actually
		// consumed — the honest at-least-once pattern (resuming older
		// than the inbox floor is always safe; the floor drops dupes).
		a.mu.Lock()
		cfg.Durable = a.durable
		cfg.DurablePosition = client.DurablePosition{Epoch: a.durEpoch, Cursor: a.durCursor}
		a.mu.Unlock()
	}
	dev, err := smcpkg.JoinCellWithRetry(ctx, tr, cfg,
		smcpkg.RetryConfig{Attempts: 10, BaseDelay: 100 * time.Millisecond})
	if err != nil {
		return fmt.Errorf("actor %d join: %w", a.id, err)
	}
	a.dev, a.tr, a.alive, a.partition = dev, tr, true, false
	go h.recvLoop(a, dev)
	if a.subscribed {
		if err := dev.Client.Subscribe(a.filter); err != nil {
			return fmt.Errorf("actor %d resubscribe: %w", a.id, err)
		}
	}
	return nil
}

// recvLoop records every delivered event for the oracle. It exits when
// the device incarnation closes; the maps persist across incarnations.
//
// Durable actors additionally run the exactly-once cursor oracle: every
// durable delivery carries its log cursor, and within one log epoch the
// consumed cursor must be strictly increasing — a repeat or rewind is a
// duplicate delivery. A crash-recovered cell legitimately starts a new
// epoch (cursors restart, retained events are redelivered), so an epoch
// change resets the oracle's sequence history instead of flagging it.
func (h *harness) recvLoop(a *actor, dev *smcpkg.Device) {
	for e := range dev.Client.Events() {
		pv, okP := e.Get("pub")
		nv, okN := e.Get("n")
		if okP && okN {
			p64, _ := pv.Int()
			n, _ := nv.Int()
			_, fence := e.Get("fence")
			_, federated := e.Get(smcpkg.AttrFederatedFrom)
			a.mu.Lock()
			if a.durable != "" && e.Cursor != 0 {
				// Within one device incarnation the epoch is fixed by the
				// resume ack, which precedes every durable delivery.
				epoch := dev.Client.DurablePosition().Epoch
				switch {
				case epoch != a.durEpoch:
					a.durEpoch = epoch
					a.durCursor = e.Cursor
					a.recv = map[int][]int64{}
					a.fence = map[int]bool{}
					a.fedFence = map[int]int{}
				case e.Cursor <= a.durCursor:
					if a.durViolation == "" {
						a.durViolation = fmt.Sprintf(
							"durable %s redelivered cursor %d (already consumed through %d, epoch %x)",
							a.durable, e.Cursor, a.durCursor, epoch)
					}
				default:
					a.durCursor = e.Cursor
				}
			}
			if federated && *chaosFed {
				// Federated imports live outside the per-cell FIFO oracle:
				// replay across relay reconnects is at-least-once until
				// the destination log's dedup collapses it, so their n
				// sequences are not FIFO evidence. The I6 oracle counts
				// their fences instead — exactly once each, or the run
				// fails.
				if fence {
					a.fedFence[int(p64)]++
				}
			} else {
				a.recv[int(p64)] = append(a.recv[int(p64)], n)
				if fence && !federated {
					a.fence[int(p64)] = true
				}
			}
			a.mu.Unlock()
		}
		e.Release()
	}
}

// chaosEvent builds this actor's next event; n is globally monotone per
// actor and never reused, even when the publish later fails.
func (a *actor) chaosEvent() *event.Event {
	n := a.nextN
	a.nextN++
	e := event.NewTyped("chaos").SetInt("pub", int64(a.id)).SetInt("n", n)
	if *chaosFed {
		// Deterministic idempotent identity: actor IDs are globally
		// unique and n is monotone per actor, so pub<<32|n never
		// collides, and the durable logs collapse at-least-once
		// federation replay to exactly-once.
		e.SetInt(store.AttrDedup, int64(a.id)<<32|n)
	}
	return e
}

// dropAll is the client-side partition: the actor's outbound datagrams
// vanish before the socket. (Addressing encodes real IP:port, so a
// man-in-the-middle proxy would break IDs; send-side drop is the
// faithful way to isolate an endpoint.)
func dropAll(from, to ident.ID, data []byte) (bool, time.Duration) {
	return true, 0
}

// lossyHook is the degraded link between real processes: a netsim-style
// loss-and-reorder profile applied on the send side (~10% drop, 0–4 ms
// jitter — delayed datagrams genuinely overtake later ones). The hook
// owns its rng because transport sends happen on arbitrary goroutines.
func lossyHook(seed int64) transport.DeliveryHook {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(from, to ident.ID, data []byte) (bool, time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if rng.Intn(10) == 0 {
			return true, 0
		}
		return false, time.Duration(rng.Intn(5)) * time.Millisecond
	}
}

// ---------------------------------------------------------------------
// Federation relays
// ---------------------------------------------------------------------

// relay imports chaos events from cell src into cell dst, the e2e
// equivalent of a FederationLink: subscribe there, republish here,
// tagged so loops die after one hop.
type relay struct {
	src, dst int
	devSrc   *smcpkg.Device
	devDst   *smcpkg.Device
	done     chan struct{}
}

func (h *harness) startRelay(src, dst int) error {
	join := func(cell int, name string) (*smcpkg.Device, error) {
		c := h.cells[cell]
		tr, err := transport.NewUDPTransport()
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		return smcpkg.JoinCellWithRetry(ctx, tr, smcpkg.DeviceConfig{
			Type: "generic", Name: name,
			Secret: []byte(c.secret), Cell: c.name, Discovery: c.discovery(),
			JoinTimeout: 2 * time.Second, Reliable: actorReliableCfg,
		}, smcpkg.RetryConfig{Attempts: 6, BaseDelay: 100 * time.Millisecond})
	}
	name := fmt.Sprintf("relay-%d-%d", src, dst)
	devSrc, err := join(src, name+"-out")
	if err != nil {
		return fmt.Errorf("relay src: %w", err)
	}
	devDst, err := join(dst, name+"-in")
	if err != nil {
		devSrc.Close()
		return fmt.Errorf("relay dst: %w", err)
	}
	if err := devSrc.Client.Subscribe(event.NewFilter().WhereType("chaos")); err != nil {
		devSrc.Close()
		devDst.Close()
		return fmt.Errorf("relay subscribe: %w", err)
	}
	r := &relay{src: src, dst: dst, devSrc: devSrc, devDst: devDst, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for e := range devSrc.Client.Events() {
			if e.Has(smcpkg.AttrFederatedFrom) {
				e.Release()
				continue
			}
			imported := e.Clone()
			imported.SetStr(smcpkg.AttrFederatedFrom, h.cells[src].name)
			e.Release()
			_ = devDst.Client.Publish(imported) // dst congested or down: drop
		}
	}()
	h.relays = append(h.relays, r)
	h.logf("federation relay %s -> %s up", h.cells[src].name, h.cells[dst].name)
	return nil
}

func (h *harness) stopRelays() {
	for _, r := range h.relays {
		r.devSrc.Close()
		<-r.done
		r.devDst.Close()
	}
	h.relays = nil
}

// ---------------------------------------------------------------------
// Supervised federation relays (-chaos.fed)
// ---------------------------------------------------------------------

// fedRelay is the supervised federation gateway of -chaos.fed: the e2e
// counterpart of smc.FederationLink against out-of-process cells. It
// joins the src cell as a durable consumer under a stable consumer
// name, remembers its resume position across device incarnations,
// republishes matching events into dst tagged and dedup-stamped, and
// probes both memberships for liveness so a killed, partitioned or
// restarted cell (or a killed link) converges to reconnect plus
// resume-from-cursor replay.
type fedRelay struct {
	h        *harness
	src, dst int
	consumer string

	posMu  sync.Mutex
	epoch  uint64 // src log epoch of the resume position
	cursor uint64 // last src cursor consumed

	devMu  sync.Mutex
	devSrc *smcpkg.Device
	devDst *smcpkg.Device
	trSrc  *transport.UDPTransport

	connected  atomic.Bool
	reconnects atomic.Uint64
	imported   atomic.Uint64
	dropped    atomic.Uint64

	ctx    context.Context
	cancel context.CancelFunc
	stop   chan struct{}
	done   chan struct{}
}

func (h *harness) startFedRelay(src, dst int) *fedRelay {
	r := &fedRelay{
		h: h, src: src, dst: dst,
		consumer: fmt.Sprintf("fed-relay-%d-%d", src, dst),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	h.fedRelays = append(h.fedRelays, r)
	go r.run()
	return r
}

// joinSide joins one cell, retrying forever (the cell may be down for
// a while) until it succeeds or the relay stops. The src side binds the
// durable consumer and resumes from the relay's position; an epoch
// mismatch after a src crash means replay-from-oldest, which the dedup
// stamps collapse downstream.
func (r *fedRelay) joinSide(slot int, name string, durable bool) (*smcpkg.Device, *transport.UDPTransport, bool) {
	for {
		c := r.h.cells[slot]
		tr, err := transport.NewUDPTransport()
		if err == nil {
			cfg := smcpkg.DeviceConfig{
				Type: "federation-gateway", Name: name,
				Secret: []byte(c.secret), Cell: c.name, Discovery: c.discovery(),
				JoinTimeout: 2 * time.Second, Reliable: actorReliableCfg,
			}
			if durable {
				r.posMu.Lock()
				cfg.Durable = r.consumer
				cfg.DurablePosition = client.DurablePosition{Epoch: r.epoch, Cursor: r.cursor}
				r.posMu.Unlock()
			}
			ctx, cancel := context.WithTimeout(r.ctx, 15*time.Second)
			dev, jerr := smcpkg.JoinCellWithRetry(ctx, tr, cfg,
				smcpkg.RetryConfig{Attempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 500 * time.Millisecond})
			cancel()
			if jerr == nil {
				return dev, tr, true
			}
		}
		select {
		case <-r.stop:
			return nil, nil, false
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// run is the supervisor: join both sides, pump until either membership
// dies, tear the incarnation down, reconnect. Only stopFedRelays ends
// the loop.
func (r *fedRelay) run() {
	defer close(r.done)
	first := true
	for {
		devSrc, trSrc, ok := r.joinSide(r.src, r.consumer+"-out", true)
		if !ok {
			return
		}
		devDst, _, ok := r.joinSide(r.dst, r.consumer+"-in", false)
		if !ok {
			_ = devSrc.Close()
			return
		}
		if err := devSrc.Client.Subscribe(event.NewFilter().WhereType("chaos")); err != nil {
			_ = devSrc.Close()
			_ = devDst.Close()
			select {
			case <-r.stop:
				return
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}
		r.devMu.Lock()
		r.devSrc, r.devDst, r.trSrc = devSrc, devDst, trSrc
		r.devMu.Unlock()
		if !first {
			r.reconnects.Add(1)
			r.h.logf("fed relay %d->%d reconnected (epoch=%x cursor=%d)", r.src, r.dst, r.epoch, r.cursor)
		}
		first = false
		r.connected.Store(true)
		r.pump(devSrc, devDst)
		r.connected.Store(false)
		r.devMu.Lock()
		r.devSrc, r.devDst, r.trSrc = nil, nil, nil
		r.devMu.Unlock()
		_ = devSrc.Close()
		_ = devDst.Close()
		select {
		case <-r.stop:
			return
		default:
		}
	}
}

// pump imports until either side dies. Each side gets a liveness probe
// (Device.Probe is a reliable heartbeat: it gives up on a dead peer),
// because a killed or partitioned cell never closes Events() on its
// own.
func (r *fedRelay) pump(devSrc, devDst *smcpkg.Device) {
	dead := make(chan struct{})
	var deadOnce sync.Once
	probeStop := make(chan struct{})
	defer close(probeStop)
	probe := func(dev *smcpkg.Device) {
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		misses := 0
		for {
			select {
			case <-probeStop:
				return
			case <-t.C:
			}
			if dev.Probe() != nil {
				if misses++; misses >= 2 {
					deadOnce.Do(func() { close(dead) })
					return
				}
			} else {
				misses = 0
			}
		}
	}
	go probe(devSrc)
	go probe(devDst)
	events := devSrc.Client.Events()
	for {
		select {
		case e, ok := <-events:
			if !ok {
				return // src client closed (link kill)
			}
			r.importEvent(devSrc, devDst, e, dead)
		case <-dead:
			return
		case <-r.stop:
			return
		}
	}
}

// importEvent republishes one src event into dst under the
// FederationLink contract: advance the resume floor for every durable
// delivery (skips included), tag the import against loops, stamp the
// chaos stream's deterministic dedup identity, and publish with
// bounded blocking-with-retry rather than silent drop.
func (r *fedRelay) importEvent(devSrc, devDst *smcpkg.Device, e *event.Event, dead <-chan struct{}) {
	if e.Cursor != 0 {
		r.posMu.Lock()
		r.epoch = devSrc.Client.DurablePosition().Epoch
		r.cursor = e.Cursor
		r.posMu.Unlock()
	}
	if e.Has(smcpkg.AttrFederatedFrom) {
		e.Release()
		return
	}
	imported := e.Clone()
	imported.SetStr(smcpkg.AttrFederatedFrom, r.h.cells[r.src].name)
	if d, ok := chaosDedupID(e); ok {
		imported.SetInt(store.AttrDedup, d)
	}
	e.Release()
	for attempt := 0; attempt < 5; attempt++ {
		if err := devDst.Client.Publish(imported); err == nil {
			r.imported.Add(1)
			return
		}
		select {
		case <-r.stop:
			attempt = 5
		case <-dead:
			attempt = 5
		case <-time.After(20 * time.Millisecond):
		}
	}
	imported.Release()
	r.dropped.Add(1)
}

// chaosDedupID recovers the deterministic idempotent identity stamped
// by chaosEvent.
func chaosDedupID(e *event.Event) (int64, bool) {
	v, ok := e.Get(store.AttrDedup)
	if !ok {
		return 0, false
	}
	d, isInt := v.Int()
	return d, isInt
}

// kill closes the relay's current devices — the gateway crash. The
// supervisor notices (Events() closes) and reconnects from the resume
// floor.
func (r *fedRelay) kill() {
	r.devMu.Lock()
	devSrc, devDst := r.devSrc, r.devDst
	r.devMu.Unlock()
	if devSrc != nil {
		_ = devSrc.Close()
	}
	if devDst != nil {
		_ = devDst.Close()
	}
}

// partition drops the relay's src-side datagrams: the link loses its
// remote cell without being told. The liveness probe gives up and the
// supervisor reconnects on a fresh (unhooked) socket, so the partition
// heals through actLinkHeal or through the reconnect itself.
func (r *fedRelay) partition() {
	r.devMu.Lock()
	if r.trSrc != nil {
		r.trSrc.SetSendHook(dropAll)
	}
	r.devMu.Unlock()
}

func (r *fedRelay) heal() {
	r.devMu.Lock()
	if r.trSrc != nil {
		r.trSrc.SetSendHook(nil)
	}
	r.devMu.Unlock()
}

// stopFedRelays ends supervision and tears the relay memberships down.
func (h *harness) stopFedRelays() {
	for _, r := range h.fedRelays {
		close(r.stop)
		r.cancel()
		r.kill()
		<-r.done
	}
	h.fedRelays = nil
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

type harness struct {
	t      *testing.T
	rng    *rand.Rand
	binDir string
	tmpDir string

	cells     []*cellProc
	actors    []*actor
	relays    []*relay
	fedRelays []*fedRelay

	relayPairs map[[2]int]bool
	killed     map[int]bool // cell slots currently down
}

func (h *harness) logf(format string, args ...interface{}) {
	h.t.Logf(format, args...)
}

func (h *harness) cellAlive(slot int) bool {
	c := h.cells[slot]
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alive
}

// newHarness boots nCells smcd processes and two actors per cell (both
// publishers, the first also a subscriber from the start). With
// -chaos.durable each cell additionally hosts one durable roaming
// subscriber fed from the cell's event log.
func newHarness(t *testing.T, seed int64, nCells int) (*harness, error) {
	h := &harness{
		t:          t,
		rng:        rand.New(rand.NewSource(seed)),
		binDir:     buildBinaries(t),
		tmpDir:     t.TempDir(),
		relayPairs: map[[2]int]bool{},
		killed:     map[int]bool{},
	}
	for i := 0; i < nCells; i++ {
		c := &cellProc{slot: i, name: fmt.Sprintf("cell-%d", i), secret: fmt.Sprintf("secret-%d", i)}
		h.cells = append(h.cells, c)
		if err := h.startCell(c, ""); err != nil {
			return h, err
		}
	}
	for i := 0; i < nCells; i++ {
		for j := 0; j < 2; j++ {
			if _, err := h.newActor(i, j == 0); err != nil {
				return h, err
			}
		}
	}
	if *chaosDurable {
		for i := 0; i < nCells; i++ {
			if _, err := h.newDurableActor(i); err != nil {
				return h, err
			}
		}
	}
	if *chaosFed {
		if nCells < 2 {
			return h, fmt.Errorf("-chaos.fed needs at least 2 cells")
		}
		// A supervised relay per adjacent pair; loop prevention keeps
		// every import single-hop.
		for i := 0; i+1 < nCells; i++ {
			h.startFedRelay(i, i+1)
		}
		if err := h.waitFedConnected(); err != nil {
			return h, err
		}
	}
	return h, nil
}

func (h *harness) newActor(cell int, subscribe bool) (*actor, error) {
	a := &actor{
		id:       len(h.actors),
		cell:     cell,
		recv:     map[int][]int64{},
		fence:    map[int]bool{},
		fedFence: map[int]int{},
	}
	h.actors = append(h.actors, a)
	if err := h.joinActor(a); err != nil {
		return nil, err
	}
	if subscribe {
		a.filter = event.NewFilter().WhereType("chaos")
		if err := a.dev.Client.Subscribe(a.filter); err != nil {
			return nil, err
		}
		a.subscribed = true
	}
	return a, nil
}

// newDurableActor joins a durable subscriber: its consumer name binds
// it to the cell's event log, so it can roam (actRoam/actReturn) and
// still see every retained event exactly once per log epoch.
func (h *harness) newDurableActor(cell int) (*actor, error) {
	a := &actor{
		id:       len(h.actors),
		cell:     cell,
		recv:     map[int][]int64{},
		fence:    map[int]bool{},
		fedFence: map[int]int{},
	}
	a.durable = fmt.Sprintf("dur-%d", a.id)
	h.actors = append(h.actors, a)
	if err := h.joinActor(a); err != nil {
		return nil, err
	}
	a.filter = event.NewFilter().WhereType("chaos")
	if err := a.dev.Client.Subscribe(a.filter); err != nil {
		return nil, err
	}
	a.subscribed = true
	return a, nil
}

// liveActors returns actors with a usable device, optionally filtered
// by predicate.
func (h *harness) liveActors(pred func(*actor) bool) []*actor {
	var out []*actor
	for _, a := range h.actors {
		if a.alive && !a.left && (pred == nil || pred(a)) {
			out = append(out, a)
		}
	}
	return out
}

func (h *harness) pick(as []*actor) *actor {
	return as[h.rng.Intn(len(as))]
}

// ---------------------------------------------------------------------
// Quiesce and invariants
// ---------------------------------------------------------------------

// queryStats performs the same one-shot management-plane query smctap
// -stats does, from a throwaway endpoint.
func queryStats(discID ident.ID) (wire.CellStats, error) {
	tr, err := transport.NewUDPTransport()
	if err != nil {
		return wire.CellStats{}, err
	}
	ch := reliable.New(tr, reliable.Config{})
	defer ch.Close()
	return smcpkg.QueryStats(ch, discID, 3*time.Second)
}

// quiesce heals every fault, reconnects every actor, and verifies the
// four convergence invariants. Any error it returns names the first
// invariant that failed.
func (h *harness) quiesce() error {
	// Heal: remove partitions and degraded links, restart dead cells,
	// stop relays (their imports are tagged and stay excluded from
	// fence accounting).
	for _, a := range h.actors {
		if (a.partition || a.lossy) && a.tr != nil {
			a.tr.SetSendHook(nil)
			a.partition = false
			a.lossy = false
		}
	}
	for _, slot := range h.killedSlots() {
		if err := h.startCell(h.cells[slot], ""); err != nil {
			return fmt.Errorf("quiesce restart: %w", err)
		}
	}
	h.killed = map[int]bool{}
	h.stopRelays()
	// Supervised relays stay up through quiesce — recovering and then
	// carrying the fence exchange IS the federation invariant. Heal any
	// link partition and wait for the supervisors to converge.
	if *chaosFed {
		for _, r := range h.fedRelays {
			r.heal()
		}
		if err := h.waitFedConnected(); err != nil {
			return err
		}
	}

	// Reconnect every surviving actor with a fresh incarnation — the
	// uniform way to recover members purged during partitions — and
	// re-establish subscriptions (Subscribe is acknowledged, so once it
	// returns the bus routes to us).
	for _, a := range h.actors {
		if a.left {
			continue
		}
		if a.alive && a.dev != nil {
			_ = a.dev.Close()
			a.alive = false
		}
		if err := h.joinActor(a); err != nil {
			return fmt.Errorf("quiesce rejoin: %w", err)
		}
	}

	// Invariant I3: every cell's own membership view must agree with
	// the harness roster once leases settle.
	if err := h.waitMembership(); err != nil {
		return err
	}

	// Invariant I1: fence events published after heal must reach every
	// same-cell subscriber — nothing reliable is lost at convergence.
	for _, a := range h.liveActors(nil) {
		e := a.chaosEvent().SetInt("fence", 1)
		if err := a.dev.Client.Publish(e); err != nil {
			return fmt.Errorf("invariant I1: actor %d fence publish: %w", a.id, err)
		}
	}
	if err := h.waitFences(); err != nil {
		return err
	}

	// Invariant I5: every durable consumer drains its lag to zero —
	// after heal, a durable subscriber eventually consumed every event
	// its cell retained, and never consumed any cursor twice within one
	// log epoch (exactly-once over the retained stream).
	if err := h.waitDurables(); err != nil {
		return err
	}

	// Invariant I6: after heal, every fence crosses each federation
	// relay and reaches every destination-cell subscriber exactly once
	// — replay across reconnects is collapsed by dedup, never lost and
	// never doubled.
	if err := h.waitFedFences(); err != nil {
		return err
	}

	// Invariant I2: per-publisher FIFO with no duplicates — every
	// recorded (subscriber, publisher) sequence is strictly increasing.
	for _, a := range h.actors {
		a.mu.Lock()
		for pub, seq := range a.recv {
			for i := 1; i < len(seq); i++ {
				if seq[i] <= seq[i-1] {
					a.mu.Unlock()
					return fmt.Errorf("invariant I2: actor %d saw pub %d out of order: n=%d after n=%d (pos %d of %d)",
						a.id, pub, seq[i], seq[i-1], i, len(seq))
				}
			}
		}
		a.mu.Unlock()
	}
	return nil
}

func (h *harness) waitMembership() error {
	wait := cellLease + cellGrace + 15*time.Second
	if *chaosFed {
		// A relay mid-reconnect briefly counts twice (old incarnation
		// still leased, new one joined); give the purge room.
		wait += 15 * time.Second
	}
	deadline := time.Now().Add(wait)
	for slot, c := range h.cells {
		want := len(h.liveActors(func(a *actor) bool { return a.cell == slot }))
		// Each supervised relay holds one membership in its src cell
		// and one in its dst cell.
		for _, r := range h.fedRelays {
			if r.src == slot {
				want++
			}
			if r.dst == slot {
				want++
			}
		}
		var last string
		for {
			st, err := queryStats(c.discovery())
			members, _ := st.Get("discovery.members")
			if err == nil && int(members) == want {
				break
			}
			if err != nil {
				last = err.Error()
			} else {
				last = fmt.Sprintf("members=%d want=%d", members, want)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("invariant I3: cell %s membership never agreed: %s", c.name, last)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// waitDurables enforces invariant I5. The management plane is the
// observer: each cell's stats report one row per durable consumer with
// its delivery lag against the log tail, so "eventually sees every
// retained event" is exactly "every row attached with lag zero". The
// exactly-once half is the recvLoop cursor oracle, checked last so a
// duplicate delivered during the drain still fails the run.
func (h *harness) waitDurables() error {
	any := false
	for _, a := range h.actors {
		if a.durable != "" && !a.left {
			any = true
		}
	}
	if !any {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for slot, c := range h.cells {
		var want []*actor
		for _, a := range h.actors {
			if a.cell == slot && a.durable != "" && !a.left {
				want = append(want, a)
			}
		}
		if len(want) == 0 {
			continue
		}
		for {
			last := ""
			st, err := queryStats(c.discovery())
			_, enabled := st.Get("store.epoch")
			switch {
			case err != nil:
				last = err.Error()
			case !enabled:
				last = "durable log not enabled"
			default:
				for _, a := range want {
					row := "durable." + a.durable
					attached, ok := st.Get(row + ".attached")
					lag, _ := st.Get(row + ".lag")
					if !ok {
						last = fmt.Sprintf("consumer %s has no stats row", a.durable)
					} else if attached != 1 || lag != 0 {
						last = fmt.Sprintf("consumer %s attached=%d lag=%d", a.durable, attached, lag)
					}
					if last != "" {
						break
					}
				}
			}
			if last == "" {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("invariant I5: cell %s durable lag never drained: %s", c.name, last)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	for _, a := range h.actors {
		a.mu.Lock()
		v := a.durViolation
		a.mu.Unlock()
		if v != "" {
			return fmt.Errorf("invariant I5: actor %d: %s", a.id, v)
		}
	}
	return nil
}

// waitFedConnected waits until every supervised relay holds live
// memberships on both sides.
func (h *harness) waitFedConnected() error {
	deadline := time.Now().Add(60 * time.Second)
	for _, r := range h.fedRelays {
		for !r.connected.Load() {
			if time.Now().After(deadline) {
				return fmt.Errorf("invariant I6: relay %s->%s never (re)connected",
					h.cells[r.src].name, h.cells[r.dst].name)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// waitFedFences enforces invariant I6: the post-heal fence from every
// live publisher in a relay's src cell reaches every subscribed actor
// in the dst cell exactly once. The "at least once" half proves the
// supervised link recovered (a parked or dead link starves it — the
// old permanent-death bug); the "at most once" half proves reconnect
// replay is collapsed by the destination log's dedup rather than
// surfacing as duplicates.
func (h *harness) waitFedFences() error {
	if len(h.fedRelays) == 0 {
		return nil
	}
	deadline := time.Now().Add(45 * time.Second)
	for {
		missing := ""
		for _, r := range h.fedRelays {
			subs := h.liveActors(func(a *actor) bool { return a.cell == r.dst && a.subscribed })
			pubs := h.liveActors(func(a *actor) bool { return a.cell == r.src })
			for _, sub := range subs {
				for _, pub := range pubs {
					sub.mu.Lock()
					n := sub.fedFence[pub.id]
					sub.mu.Unlock()
					if n == 0 {
						missing = fmt.Sprintf("subscriber %d (cell %s) missing federated fence from publisher %d (cell %s)",
							sub.id, h.cells[r.dst].name, pub.id, h.cells[r.src].name)
					}
				}
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("invariant I6: %s", missing)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Every fence crossed; give straggling duplicates a settle window,
	// then require exactly-once.
	time.Sleep(500 * time.Millisecond)
	for _, a := range h.actors {
		a.mu.Lock()
		for pub, n := range a.fedFence {
			if n > 1 {
				a.mu.Unlock()
				return fmt.Errorf("invariant I6: subscriber %d saw federated fence from publisher %d %d times, want exactly once",
					a.id, pub, n)
			}
		}
		a.mu.Unlock()
	}
	return nil
}

func (h *harness) waitFences() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		missing := ""
		for _, sub := range h.liveActors(func(a *actor) bool { return a.subscribed }) {
			for _, pub := range h.liveActors(func(a *actor) bool { return a.cell == sub.cell }) {
				sub.mu.Lock()
				ok := sub.fence[pub.id]
				sub.mu.Unlock()
				if !ok {
					missing = fmt.Sprintf("subscriber %d missing fence from publisher %d (cell %s)",
						sub.id, pub.id, h.cells[sub.cell].name)
				}
			}
		}
		if missing == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("invariant I1: %s", missing)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// teardown leaves cleanly and checks invariant I4 on every daemon.
func (h *harness) teardown() error {
	for _, a := range h.actors {
		if a.alive && a.dev != nil {
			_ = a.dev.Leave()
			a.alive = false
		}
	}
	h.stopRelays()
	h.stopFedRelays()
	// Let leave-purges and final acks settle before asking the daemons
	// to drain.
	time.Sleep(500 * time.Millisecond)
	var firstErr error
	for _, c := range h.cells {
		if err := h.stopGraceful(c); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// abort force-kills everything after a failure so the test process
// never leaks daemons.
func (h *harness) abort() {
	for _, a := range h.actors {
		if a.alive && a.dev != nil {
			_ = a.dev.Close()
			a.alive = false
		}
	}
	h.stopRelays()
	h.stopFedRelays()
	for _, c := range h.cells {
		h.killCell(c)
	}
}
