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
// query: it asks the discovery service for the cell's counters
// (bus/channel statistics and the packet-pool balance), prints them
// and exits. No admission is required for a stats query.
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
	"github.com/amuse/smc/internal/wire"
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
// management-plane snapshot and prints it in flat key=value form, one
// section per line, so shell harnesses can grep single counters.
func statsQuery(tr transport.Transport, discID ident.ID) error {
	ch := reliable.New(tr, reliable.Config{})
	defer ch.Close()
	if err := ch.Send(discID, wire.PktStatsRequest, nil); err != nil {
		return fmt.Errorf("stats request: %w", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		pkt, err := ch.RecvTimeout(time.Until(deadline))
		if err != nil {
			return fmt.Errorf("stats response: %w", err)
		}
		if pkt.Type != wire.PktStatsResponse {
			pkt.Release()
			continue
		}
		st, err := wire.DecodeCellStats(pkt.Payload)
		pkt.Release()
		if err != nil {
			return fmt.Errorf("decode stats: %w", err)
		}
		fmt.Printf("cell %s members=%d published=%d delivered-local=%d enqueued-remote=%d dropped=%d quenches=%d auth-denied=%d\n",
			st.Cell, st.Members, st.Published, st.DeliveredLocal,
			st.EnqueuedRemote, st.Dropped, st.Quenches, st.AuthDenied)
		printChannel("bus-channel ", st.BusChannel)
		printChannel("disc-channel", st.DiscChannel)
		printDurable(st)
		printFederation(st)
		return nil
	}
}

// printDurable renders the durable log section: depth, cursor range,
// retained bytes and per-consumer lag. Nothing is printed for a cell
// without a durable log.
func printDurable(st wire.CellStats) {
	if !st.Log.Enabled {
		return
	}
	l := st.Log
	fmt.Printf("durable-log epoch=%016x events=%d bytes=%d segments=%d oldest-cursor=%d newest-cursor=%d\n",
		l.Epoch, l.Events, l.Bytes, l.Segments, l.OldestCursor, l.NewestCursor)
	fmt.Printf("durable-log appended=%d evicted=%d dups-dropped=%d seg-acquired=%d seg-recycled=%d seg-leaked=%d\n",
		l.Appended, l.Evicted, l.DupsDropped,
		l.SegmentsAcquired, l.SegmentsRecycled,
		l.SegmentsAcquired-l.SegmentsRecycled)
	for _, d := range st.Durables {
		fmt.Printf("durable-consumer name=%s attached=%t delivered=%d lag=%d\n",
			d.Name, d.Attached, d.Delivered, d.Lag)
	}
}

// printFederation renders one row per federation link importing into
// this cell. Nothing is printed for a cell without links.
func printFederation(st wire.CellStats) {
	for _, f := range st.Federation {
		fmt.Printf("federation name=%s remote=%s connected=%t imported=%d skipped=%d dropped=%d reconnects=%d resume-epoch=%016x resume-cursor=%d\n",
			f.Name, f.RemoteCell, f.Connected, f.Imported, f.Skipped,
			f.Dropped, f.Reconnects, f.ResumeEpoch, f.ResumeCursor)
	}
}

func printChannel(label string, c wire.ChannelCounters) {
	fmt.Printf("%s sent=%d acked=%d retransmits=%d fast-retransmits=%d failures=%d resumed=%d stream-resets=%d\n",
		label, c.Sent, c.Acked, c.Retransmits, c.FastRetransmits,
		c.Failures, c.Resumed, c.StreamResets)
	fmt.Printf("%s received=%d dups-dropped=%d buffered=%d stale-acks=%d stale-epoch=%d unreliable-in=%d unreliable-out=%d\n",
		label, c.Received, c.DupsDropped, c.Buffered, c.StaleAcks,
		c.StaleEpoch, c.UnreliableIn, c.UnreliableOut)
	fmt.Printf("%s pool-acquired=%d pool-recycled=%d pool-leaked=%d\n",
		label, c.PacketsAcquired, c.PacketsRecycled, c.Leaked())
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
