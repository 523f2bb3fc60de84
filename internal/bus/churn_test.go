package bus

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
)

// TestConcurrentPublishUnderChurn hammers AddMember/RemoveMember while
// several publishers flood the bus, across shard counts. It locks in
// the sharded pipeline's §II-C guarantees: per-publisher FIFO delivery
// order is preserved, nothing is lost under backpressure, and purged
// members receive no deliveries after RemoveMember returns. Run with
// -race to exercise the copy-on-write membership snapshot.
func TestConcurrentPublishUnderChurn(t *testing.T) {
	for _, shards := range shardCounts() {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testChurn(t, shards)
		})
	}
}

func testChurn(t *testing.T, shards int) {
	r := newRig(t, WithShards(shards), WithQueueDepth(1024))

	const (
		publishers = 4
		perPub     = 300
		churners   = 2
	)

	// One local subscriber records every delivery per sender.
	var (
		recvMu   sync.Mutex
		received = make(map[ident.ID][]uint64)
	)
	sink := r.bus.Local("sink")
	err := sink.Subscribe(event.NewFilter().WhereType("churn"), func(e *event.Event) {
		recvMu.Lock()
		received[e.Sender] = append(received[e.Sender], e.Seq)
		recvMu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Churners add and remove scratch members (each with a filter that
	// matches the flood) while the publishers run.
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	for c := 0; c < churners; c++ {
		churnWG.Add(1)
		go func(c int) {
			defer churnWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopChurn:
					return
				default:
				}
				id := ident.New(uint64(0x9000 + c*1000 + i%50))
				if err := r.bus.AddMember(id, "generic", "churn"); err != nil {
					continue // duplicate from a previous lap: skip
				}
				if err := r.bus.match.Subscribe(id, event.NewFilter().WhereType("churn")); err != nil {
					t.Error(err)
					return
				}
				px := r.bus.MemberProxy(id)
				r.bus.RemoveMember(id, "churn")
				if px == nil {
					t.Error("member added without proxy")
					return
				}
				// After RemoveMember returns the proxy is purged:
				// in-flight dispatches against an older snapshot hit
				// the stopped proxy and must be discarded, so its
				// Enqueued counter can never grow again.
				frozen := px.Stats().Enqueued
				time.Sleep(time.Millisecond)
				if got := px.Stats().Enqueued; got != frozen {
					t.Errorf("purged member still receiving: %d -> %d", frozen, got)
					return
				}
			}
		}(c)
	}

	// Publishers flood; Publish waits out backpressure, so nothing is
	// lost.
	var pubWG sync.WaitGroup
	pubs := make([]*LocalService, publishers)
	for p := 0; p < publishers; p++ {
		pubs[p] = r.bus.Local(fmt.Sprintf("pub-%d", p))
		pubWG.Add(1)
		go func(svc *LocalService) {
			defer pubWG.Done()
			for i := 0; i < perPub; i++ {
				if err := svc.Publish(event.NewTyped("churn").SetInt("n", int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(pubs[p])
	}
	pubWG.Wait()
	close(stopChurn)
	churnWG.Wait()

	// Wait for the pipeline to drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		recvMu.Lock()
		total := 0
		for _, seqs := range received {
			total += len(seqs)
		}
		recvMu.Unlock()
		if total >= publishers*perPub {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained %d of %d deliveries", total, publishers*perPub)
		}
		time.Sleep(5 * time.Millisecond)
	}

	recvMu.Lock()
	defer recvMu.Unlock()
	for _, svc := range pubs {
		seqs := received[svc.ID()]
		if len(seqs) != perPub {
			t.Fatalf("publisher %s: %d of %d events delivered", svc.ID(), len(seqs), perPub)
		}
		// Each publish is delivered exactly once and in publish order,
		// with no publish refused: the seqs are exactly 1..perPub.
		for i, seq := range seqs {
			if seq != uint64(i+1) {
				t.Fatalf("publisher %s: position %d has seq %d (loss, dup or reorder)", svc.ID(), i, seq)
			}
		}
	}
}
