// Command smcd runs a full Self-Managed Cell (event bus + discovery
// service + policy service) over real UDP sockets on the local host,
// mirroring the prototype deployment of §IV.
//
// Usage:
//
//	smcd -cell ward-3 -secret s3cret -policies policies.pol
//
// The daemon prints the bus and discovery service IDs (which encode
// their UDP address and port, §IV); hand the discovery ID to sensorsim
// instances so they can join.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/matcher"
	"github.com/amuse/smc/internal/policy"
	"github.com/amuse/smc/internal/smc"
	"github.com/amuse/smc/internal/store"
	"github.com/amuse/smc/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		cellName   = flag.String("cell", "smc-cell", "cell name")
		secret     = flag.String("secret", "change-me", "shared admission secret")
		policyFile = flag.String("policies", "", "Ponder-lite policy file to load")
		engine     = flag.String("matcher", "fast", "matching mechanism: fast or siena")
		lease      = flag.Duration("lease", 2*time.Second, "membership lease")
		grace      = flag.Duration("grace", 3*time.Second, "grace period after lease expiry")
		busAddr    = flag.String("addr", "127.0.0.1:0", "bus listen address (host:port; port 0: OS chooses)")
		discAddr   = flag.String("disc-addr", "127.0.0.1:0", "discovery listen address (host:port; port 0: OS chooses)")
		drain      = flag.Duration("drain", 5*time.Second, "in-flight delivery drain budget on shutdown")
		batch      = flag.Int("batch", 0, "coalesce up to N events per outbound packet, holding a partial batch up to 1ms (0: up to 16 already-queued events, never waits; 1: off)")
		verbose    = flag.Bool("v", false, "log policy actions and membership changes")

		durable      = flag.Bool("durable", false, "retain published events in a durable log for replay to durable consumers")
		durableDir   = flag.String("durable-dir", "", "persist the durable log's sealed segments here (empty: memory-only; implies -durable)")
		durableBytes = flag.Uint64("durable-max-bytes", 0, "durable log retention: max record bytes (0: layer default 16MiB)")
		durableEvts  = flag.Uint64("durable-max-events", 0, "durable log retention: max retained events (0: unlimited)")
		durableAge   = flag.Duration("durable-max-age", 0, "durable log retention: max record age (0: unlimited)")
		syncEvery    = flag.Int("durable-sync-every", 0, "fsync the active segment's tail every N appends (0: sealed segments only; needs -durable-dir)")
		syncInterval = flag.Duration("durable-sync-interval", 0, "fsync the active segment's tail at least this often (0: off; needs -durable-dir)")
	)
	flag.Parse()

	busOpt, err := transport.WithAddr(*busAddr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	discOpt, err := transport.WithAddr(*discAddr)
	if err != nil {
		return fmt.Errorf("-disc-addr: %w", err)
	}
	busTr, err := transport.NewUDPTransport(busOpt)
	if err != nil {
		return fmt.Errorf("bus transport: %w", err)
	}
	discTr, err := transport.NewUDPTransport(discOpt)
	if err != nil {
		return fmt.Errorf("discovery transport: %w", err)
	}

	cfg := smc.Config{
		Cell:    *cellName,
		Secret:  []byte(*secret),
		Matcher: matcher.Kind(*engine),
		Lease:   *lease,
		Grace:   *grace,
		Batch:   smc.BatchConfig{Events: *batch},
	}
	if *batch > 1 {
		// An explicit cap keeps its flush-on-deadline behaviour; only
		// the default coalesces without ever waiting.
		cfg.Batch.FlushDelay = time.Millisecond
	}
	if *durable || *durableDir != "" {
		cfg.Durable = &store.Config{
			Dir:          *durableDir,
			MaxBytes:     *durableBytes,
			MaxEvents:    *durableEvts,
			MaxAge:       *durableAge,
			SyncEvery:    *syncEvery,
			SyncInterval: *syncInterval,
		}
	}
	if *verbose {
		cfg.PolicyOptions = append(cfg.PolicyOptions,
			policy.WithLogf(func(format string, args ...interface{}) {
				log.Printf(format, args...)
			}))
	}
	if *policyFile != "" {
		text, err := os.ReadFile(*policyFile)
		if err != nil {
			return fmt.Errorf("read policies: %w", err)
		}
		cfg.PolicyText = string(text)
	}

	cell, err := smc.NewCell(busTr, discTr, cfg)
	if err != nil {
		return err
	}
	cell.Start()

	if *verbose {
		watcher := cell.Bus.Local("smcd-log")
		logMember := func(e *event.Event) {
			name, _ := e.Get("name")
			dt, _ := e.Get(event.AttrDeviceType)
			log.Printf("%s: %s (%s)", e.Type(), name, dt)
		}
		if err := watcher.Subscribe(event.NewFilter().WhereType(event.TypeNewMember), logMember); err != nil {
			return err
		}
		if err := watcher.Subscribe(event.NewFilter().WhereType(event.TypePurgeMember), logMember); err != nil {
			return err
		}
	}

	fmt.Printf("cell      : %s\n", *cellName)
	fmt.Printf("matcher   : %s\n", cell.Bus.MatcherName())
	if log := cell.Bus.DurableLog(); log != nil {
		mode := "memory"
		if *durableDir != "" {
			mode = *durableDir
		}
		fmt.Printf("durable   : epoch=%016x store=%s\n", log.Epoch(), mode)
	}
	fmt.Printf("bus       : %s (udp %s)\n", cell.Bus.ID(), busTr.LocalAddr())
	fmt.Printf("discovery : %s (udp %s)\n", cell.Discovery.ID(), discTr.LocalAddr())
	fmt.Printf("join with : sensorsim -cell %s -secret %s -discovery %s\n",
		*cellName, *secret, cell.Discovery.ID())
	// The single machine-readable line harnesses wait for; with -addr
	// port 0 this is the only way to learn the bound addresses.
	fmt.Printf("ready cell=%s bus=%s bus-addr=%s discovery=%s disc-addr=%s\n",
		*cellName, cell.Bus.ID(), busTr.LocalAddr(), cell.Discovery.ID(), discTr.LocalAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			return shutdown(cell, *drain)
		case <-ticker.C:
			members := cell.Discovery.Members()
			st := cell.Bus.Stats()
			fmt.Printf("[status] members=%d published=%d delivered=%d quenches=%d denied=%d\n",
				len(members), st.Published, st.EnqueuedRemote+st.DeliveredLocal,
				st.Quenches, st.AuthDenied)
		}
	}
}

// shutdown drains both reliable endpoints, closes the cell and turns
// the packet-pool balance into the exit status: a daemon that leaked
// pooled packets exits non-zero so a harness can catch the regression.
func shutdown(cell *smc.Cell, drain time.Duration) error {
	fmt.Println("\nshutting down: draining in-flight deliveries")
	err := cell.Shutdown(drain)
	acq, rec, clean := cell.LeakCheck()
	fmt.Printf("leakcheck acquired=%d recycled=%d leaked=%d\n", acq, rec, acq-rec)
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if !clean {
		return fmt.Errorf("packet pool leak: %d packets not recycled", acq-rec)
	}
	return nil
}
