package smc_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/netsim"
	"github.com/amuse/smc/internal/reliable"
	"github.com/amuse/smc/internal/smc"
)

// TestDeliveryContractOverLossyLink runs the complete stack — cell,
// discovery, proxies, reliable hops — over a link that loses and
// duplicates packets, and asserts the §II-C contract end-to-end:
// every published event delivered exactly once, per-sender FIFO.
func TestDeliveryContractOverLossyLink(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	link := netsim.Profile{Name: "chaos", Loss: 0.15, Duplicate: 0.15}
	net := netsim.New(link, netsim.WithSeed(99))
	defer net.Close()

	cfg := defaultCellConfig()
	cfg.Lease = 2 * time.Second
	cfg.Grace = 10 * time.Second // no purges during the run
	cfg.Reliable = reliable.Config{
		RetryTimeout:    30 * time.Millisecond,
		MaxRetryTimeout: 200 * time.Millisecond,
		MaxRetries:      25,
	}
	cell := newTestCell(t, net, cfg)
	_ = cell

	join := func(id uint64, name string) *smc.Device {
		// Joins themselves ride the lossy link; JoinCellWithRetry's
		// bounded backoff handles the losses.
		dev, err := smc.JoinCellWithRetry(context.Background(), attach(t, net, id),
			smc.DeviceConfig{
				Type: "generic", Name: name, Secret: testSecret,
				JoinTimeout: 5 * time.Second,
				Reliable:    cfg.Reliable,
			},
			smc.RetryConfig{Attempts: 5, BaseDelay: 50 * time.Millisecond})
		if err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		return dev
	}

	sub := join(0xC001, "chaos-sub")
	defer sub.Close()
	if err := sub.Client.Subscribe(event.NewFilter().WhereType("chaos")); err != nil {
		t.Fatal(err)
	}

	const publishers, perPublisher = 3, 25
	var pubs []*smc.Device
	for p := 0; p < publishers; p++ {
		dev := join(uint64(0xC100+p), fmt.Sprintf("chaos-pub-%d", p))
		defer dev.Close()
		pubs = append(pubs, dev)
	}

	var wg sync.WaitGroup
	for p, dev := range pubs {
		wg.Add(1)
		go func(p int, dev *smc.Device) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				e := event.NewTyped("chaos").SetInt("pub", int64(p)).SetInt("n", int64(i))
				if err := dev.Client.Publish(e); err != nil {
					t.Errorf("pub %d event %d: %v", p, i, err)
					return
				}
			}
		}(p, dev)
	}

	// Collect everything; verify exactly-once and per-sender order.
	got := make(map[int][]int64)
	total := 0
	deadline := time.Now().Add(90 * time.Second)
	for total < publishers*perPublisher && time.Now().Before(deadline) {
		e, err := sub.Client.NextEvent(time.Until(deadline))
		if err != nil {
			break
		}
		pv, _ := e.Get("pub")
		nv, _ := e.Get("n")
		p64, _ := pv.Int()
		n, _ := nv.Int()
		got[int(p64)] = append(got[int(p64)], n)
		total++
	}
	wg.Wait()

	if total != publishers*perPublisher {
		t.Fatalf("delivered %d of %d", total, publishers*perPublisher)
	}
	for p := 0; p < publishers; p++ {
		seq := got[p]
		if len(seq) != perPublisher {
			t.Fatalf("publisher %d: %d events", p, len(seq))
		}
		for i, n := range seq {
			if n != int64(i) {
				t.Fatalf("publisher %d: position %d has n=%d (FIFO/dup violation): %v", p, i, n, seq)
			}
		}
	}
	// The link must actually have been hostile.
	st := net.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Errorf("link not hostile enough: %+v", st)
	}
}

// TestMembershipChurn joins and leaves many devices while traffic
// flows; the cell must end consistent: all leavers purged, stayers
// still members, no cross-talk.
func TestMembershipChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test skipped in -short")
	}
	net := netsim.New(netsim.Perfect, netsim.WithSeed(123))
	defer net.Close()
	cfg := defaultCellConfig()
	cfg.Lease = 300 * time.Millisecond
	cfg.Grace = 300 * time.Millisecond
	cell := newTestCell(t, net, cfg)

	stayer, err := smc.JoinCell(attach(t, net, 0xD001), smc.DeviceConfig{
		Type: "generic", Name: "stayer", Secret: testSecret,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stayer.Close()
	if err := stayer.Client.Subscribe(event.NewFilter().WhereType("note")); err != nil {
		t.Fatal(err)
	}

	const churners = 12
	received := 0
	for c := 0; c < churners; c++ {
		dev, err := smc.JoinCell(attach(t, net, uint64(0xD100+c)), smc.DeviceConfig{
			Type: "generic", Name: fmt.Sprintf("churner-%d", c), Secret: testSecret,
		})
		if err != nil {
			t.Fatalf("churner %d join: %v", c, err)
		}
		if err := dev.Client.Publish(event.NewTyped("note").SetInt("c", int64(c))); err != nil {
			t.Fatalf("churner %d publish: %v", c, err)
		}
		if _, err := stayer.Client.NextEvent(5 * time.Second); err != nil {
			t.Fatalf("note %d not delivered: %v", c, err)
		}
		received++
		if c%2 == 0 {
			if err := dev.Leave(); err != nil {
				t.Fatalf("churner %d leave: %v", c, err)
			}
		} else {
			_ = dev.Close() // silent death → purge via lease+grace
		}
	}
	if received != churners {
		t.Fatalf("received %d of %d", received, churners)
	}

	// Eventually only the stayer remains.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if len(cell.Discovery.Members()) == 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if members := cell.Discovery.Members(); len(members) != 1 {
		t.Fatalf("final members = %+v", members)
	}
	if _, ok := cell.Discovery.Member(stayer.Client.ID()); !ok {
		t.Fatal("the stayer is not the member left")
	}
	// The bus agrees with discovery.
	if got := len(cell.Bus.Members()); got != 1 {
		t.Errorf("bus members = %d", got)
	}
	st := cell.Discovery.Stats()
	if st.Admitted != churners+1 || st.Purged != churners {
		t.Errorf("discovery stats = %+v", st)
	}
}
