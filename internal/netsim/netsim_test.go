package netsim

import (
	"errors"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/transport"
)

func TestPerfectDelivery(t *testing.T) {
	n := New(Perfect, WithSeed(1))
	defer n.Close()
	a, err := n.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := a.Send(b.LocalID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := b.RecvTimeout(time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	st := n.Stats()
	if st.Sent != 100 || st.Delivered != 100 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLatencyApplied(t *testing.T) {
	p := Profile{Name: "slow", Latency: 50 * time.Millisecond}
	n := New(p, WithSeed(2))
	defer n.Close()
	a, _ := n.Attach(ident.New(1))
	b, _ := n.Attach(ident.New(2))
	start := time.Now()
	if err := a.Send(b.LocalID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("delivered in %v, want ≥ ~50ms", d)
	}
}

func TestBandwidthSerialisesTransmissions(t *testing.T) {
	// 100 KB/s: ten 1000-byte datagrams take ~100 ms in total.
	p := Profile{Name: "thin", Bandwidth: 100 * 1024}
	n := New(p, WithSeed(3))
	defer n.Close()
	a, _ := n.Attach(ident.New(1))
	b, _ := n.Attach(ident.New(2))
	const count, size = 10, 1024
	start := time.Now()
	for i := 0; i < count; i++ {
		if err := a.Send(b.LocalID(), make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		if _, err := b.RecvTimeout(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	ideal := time.Duration(float64(count*size) / float64(p.Bandwidth) * float64(time.Second))
	if elapsed < ideal*8/10 {
		t.Errorf("elapsed %v, want ≥ %v (bandwidth not enforced)", elapsed, ideal)
	}
}

func TestLossDropsApproximately(t *testing.T) {
	n := New(Lossy(0.5), WithSeed(4))
	defer n.Close()
	a, _ := n.Attach(ident.New(1))
	b, _ := n.Attach(ident.New(2))
	const count = 2000
	for i := 0; i < count; i++ {
		if err := a.Send(b.LocalID(), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	for {
		if _, err := b.RecvTimeout(100 * time.Millisecond); err != nil {
			break
		}
		received++
	}
	if received < count/3 || received > count*2/3 {
		t.Errorf("received %d of %d at 50%% loss", received, count)
	}
	st := n.Stats()
	if st.Dropped == 0 {
		t.Error("no drops recorded")
	}
}

func TestDuplicateDelivery(t *testing.T) {
	p := Profile{Name: "dupey", Duplicate: 1.0}
	n := New(p, WithSeed(5))
	defer n.Close()
	a, _ := n.Attach(ident.New(1))
	b, _ := n.Attach(ident.New(2))
	if err := a.Send(b.LocalID(), []byte("dup")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.RecvTimeout(time.Second); err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
	}
	if n.Stats().Duplicated != 1 {
		t.Errorf("Duplicated = %d", n.Stats().Duplicated)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(Perfect, WithSeed(6))
	defer n.Close()
	a, _ := n.Attach(ident.New(1))
	b, _ := n.Attach(ident.New(2))

	n.Partition(a.LocalID(), b.LocalID())
	if err := a.Send(b.LocalID(), []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(80 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("partitioned delivery: %v", err)
	}

	n.Heal(a.LocalID(), b.LocalID())
	if err := a.Send(b.LocalID(), []byte("found")); err != nil {
		t.Fatal(err)
	}
	if dg, err := b.RecvTimeout(time.Second); err != nil || string(dg.Data) != "found" {
		t.Errorf("healed delivery: %v %q", err, dg.Data)
	}
	if n.Stats().Blocked == 0 {
		t.Error("no blocked sends recorded")
	}
}

func TestIsolateAndRestore(t *testing.T) {
	n := New(Perfect, WithSeed(7))
	defer n.Close()
	a, _ := n.Attach(ident.New(1))
	b, _ := n.Attach(ident.New(2))
	c, _ := n.Attach(ident.New(3))

	n.Isolate(b.LocalID())
	// Isolated node neither receives...
	if err := a.Send(b.LocalID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(60 * time.Millisecond); err == nil {
		t.Error("isolated node received")
	}
	// ...nor is heard.
	if err := b.Send(c.LocalID(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvTimeout(60 * time.Millisecond); err == nil {
		t.Error("isolated node was heard")
	}

	n.Restore(b.LocalID())
	if err := a.Send(b.LocalID(), []byte("back")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(time.Second); err != nil {
		t.Errorf("restored delivery: %v", err)
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	n := New(Perfect, WithSeed(8))
	defer n.Close()
	a, _ := n.Attach(ident.New(1))
	b, _ := n.Attach(ident.New(2))
	c, _ := n.Attach(ident.New(3))
	if err := a.Send(ident.Broadcast, []byte("all")); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []*Endpoint{b, c} {
		if _, err := ep.RecvTimeout(time.Second); err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
	if _, err := a.RecvTimeout(60 * time.Millisecond); err == nil {
		t.Error("sender heard own broadcast")
	}
}

func TestUnknownDestinationSilentlyDropped(t *testing.T) {
	n := New(Perfect, WithSeed(9))
	defer n.Close()
	a, _ := n.Attach(ident.New(1))
	if err := a.Send(ident.New(404), []byte("x")); err != nil {
		t.Errorf("datagram send to unknown dest errored: %v", err)
	}
	if n.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d", n.Stats().Dropped)
	}
}

func TestMTUEnforced(t *testing.T) {
	p := Profile{Name: "tiny", MTU: 100}
	n := New(p, WithSeed(10))
	defer n.Close()
	a, _ := n.Attach(ident.New(1))
	b, _ := n.Attach(ident.New(2))
	if err := a.Send(b.LocalID(), make([]byte, 101)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(60 * time.Millisecond); err == nil {
		t.Error("oversized datagram delivered")
	}
}

func TestPerLinkProfileOverride(t *testing.T) {
	n := New(Perfect, WithSeed(11))
	defer n.Close()
	a, _ := n.Attach(ident.New(1))
	b, _ := n.Attach(ident.New(2))
	c, _ := n.Attach(ident.New(3))
	n.SetLinkProfile(a.LocalID(), b.LocalID(), Lossy(1.0))

	if err := a.Send(b.LocalID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(60 * time.Millisecond); err == nil {
		t.Error("fully lossy link delivered")
	}
	if err := a.Send(c.LocalID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvTimeout(time.Second); err != nil {
		t.Errorf("default link failed: %v", err)
	}
}

func TestAttachValidation(t *testing.T) {
	n := New(Perfect)
	defer n.Close()
	if _, err := n.Attach(ident.Nil); err == nil {
		t.Error("nil ID attached")
	}
	if _, err := n.Attach(ident.Broadcast); err == nil {
		t.Error("broadcast ID attached")
	}
	if _, err := n.Attach(ident.New(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(ident.New(1)); err == nil {
		t.Error("duplicate attached")
	}
}

func TestNetworkCloseWaitsForTimers(t *testing.T) {
	p := Profile{Name: "slow", Latency: 30 * time.Millisecond}
	n := New(p, WithSeed(12))
	a, _ := n.Attach(ident.New(1))
	b, _ := n.Attach(ident.New(2))
	if err := a.Send(b.LocalID(), []byte("inflight")); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// After close, attach and send must fail cleanly.
	if _, err := n.Attach(ident.New(9)); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("attach after close: %v", err)
	}
	if err := a.Send(b.LocalID(), []byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

func TestUSBLinkProfileCalibration(t *testing.T) {
	// The paper's link: ~1.5 ms latency (0.6–2.3 ms) and ~575 KB/s.
	if USBLink.Latency != 1500*time.Microsecond {
		t.Errorf("USB latency = %v", USBLink.Latency)
	}
	lo := USBLink.Latency - USBLink.Jitter
	hi := USBLink.Latency + USBLink.Jitter
	if lo < 500*time.Microsecond || hi > 2500*time.Microsecond {
		t.Errorf("USB jitter envelope [%v, %v] outside paper's 0.6–2.3 ms", lo, hi)
	}
	if USBLink.Bandwidth != 575*1024 {
		t.Errorf("USB bandwidth = %d", USBLink.Bandwidth)
	}
}

func TestReorderProfileShufflesDelivery(t *testing.T) {
	p := Profile{Name: "reorder", Reorder: 0.5, ReorderBy: 5 * time.Millisecond}
	n := New(p, WithSeed(42))
	defer n.Close()
	src, err := n.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	const count = 40
	for i := 0; i < count; i++ {
		if err := src.Send(dst.LocalID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var order []byte
	for i := 0; i < count; i++ {
		dg, err := dst.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		order = append(order, dg.Data[0])
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Errorf("no reordering observed at Reorder=0.5: %v", order)
	}
	if st := n.Stats(); st.Reordered == 0 {
		t.Errorf("stats.Reordered = 0, want > 0 (stats %+v)", st)
	}
}

func TestReorderDefaultDelay(t *testing.T) {
	p := Profile{Latency: 3 * time.Millisecond}
	if got := p.reorderBy(); got != 8*time.Millisecond {
		t.Errorf("default reorderBy = %v, want 8ms", got)
	}
	p.ReorderBy = time.Millisecond
	if got := p.reorderBy(); got != time.Millisecond {
		t.Errorf("explicit reorderBy = %v", got)
	}
}
