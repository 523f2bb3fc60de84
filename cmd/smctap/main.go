// Command smctap joins a running cell as a generic member and prints
// every event matching a content filter — the observation tool for a
// live SMC (think tcpdump for the event bus).
//
// Usage:
//
//	smctap -cell ward-3 -secret s3cret -discovery <id from smcd> \
//	       -filter 'type = "alarm" && severity >= 2'
//
// The filter syntax is the Ponder-lite constraint grammar (see
// internal/policy); an empty filter taps everything.
//
// With -stats the tool instead performs a one-shot management-plane
// query: it asks the discovery service for the cell's counters — every
// layer's, one name=value per line (bus.published,
// reliable.bus.packets_acquired, durable.<consumer>.lag, ...) — prints
// them and exits. No admission is required for a stats query.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/policy"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/smc"
	"github.com/amuse/smc/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// parseFilter reuses the policy parser's constraint grammar by
// wrapping the expression in a throwaway obligation.
func parseFilter(expr string) (*event.Filter, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return event.NewFilter(), nil
	}
	src := "obligation tap { on " + expr + ` do log("") }`
	f, err := policy.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("bad filter expression: %w", err)
	}
	return f.Obligations[0].On, nil
}

func run() error {
	var (
		cellName = flag.String("cell", "smc-cell", "cell to join")
		secret   = flag.String("secret", "change-me", "shared admission secret")
		discStr  = flag.String("discovery", "", "discovery service ID (from smcd); empty waits for beacons")
		filterEx = flag.String("filter", "", `constraint expression, e.g. 'type = "alarm" && severity >= 2'; empty taps everything`)
		name     = flag.String("name", "smctap", "device name in the cell")
		addr     = flag.String("addr", "127.0.0.1:0", "listen address (host:port; port 0: OS chooses)")
		stats    = flag.Bool("stats", false, "one-shot query: print the cell's counters and exit")
	)
	flag.Parse()

	filter, err := parseFilter(*filterEx)
	if err != nil {
		return err
	}

	addrOpt, err := transport.WithAddr(*addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	tr, err := transport.NewUDPTransport(addrOpt)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	var discID ident.ID
	if *discStr != "" {
		if discID, err = ident.Parse(*discStr); err != nil {
			return fmt.Errorf("discovery ID: %w", err)
		}
	}

	if *stats {
		if *discStr == "" {
			return fmt.Errorf("-stats requires -discovery (the ID printed by smcd)")
		}
		return statsQuery(tr, discID)
	}

	dev, err := smc.JoinCell(tr, smc.DeviceConfig{
		Type: "generic", Name: *name, Secret: []byte(*secret),
		Cell: *cellName, Discovery: discID,
	})
	if err != nil {
		return fmt.Errorf("join: %w", err)
	}
	if err := dev.Client.Subscribe(filter); err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	fmt.Printf("tapping cell %q with %s\n", dev.Join.Cell, filter)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	count := 0
	for {
		select {
		case <-sig:
			fmt.Printf("\n%d events observed\n", count)
			if d := dev.Client.Stats().InboxDropped; d > 0 {
				fmt.Printf("%d more dropped at the tap's inbox (tap slower than the stream)\n", d)
			}
			return dev.Leave()
		case e, ok := <-dev.Client.Events():
			if !ok {
				fmt.Printf("\nconnection closed after %d events\n", count)
				return nil
			}
			count++
			fmt.Printf("%s %s", time.Now().Format("15:04:05.000"), renderEvent(e))
			e.Release() // delivered events are pooled borrowing decodes
		}
	}
}

// statsQuery asks the discovery service at discID for the cell's
// management-plane snapshot and prints it: the cell's name, then one
// name=value line per counter in name order, so shell harnesses can
// grep single counters.
func statsQuery(tr transport.Transport, discID ident.ID) error {
	ch := reliable.New(tr, reliable.Config{})
	defer ch.Close()
	st, err := smc.QueryStats(ch, discID, 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("cell %s\n", st.Cell)
	for _, s := range st.Stats {
		fmt.Printf("%s=%d\n", s.Name, s.Value)
	}
	return nil
}

// renderEvent prints one event as a single line.
func renderEvent(e *event.Event) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s #%d]", e.Sender, e.Seq)
	e.Range(func(name string, v event.Value) bool {
		fmt.Fprintf(&sb, " %s=%s", name, v)
		return true
	})
	sb.WriteByte('\n')
	return sb.String()
}
