package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
)

func TestSwitchUnicast(t *testing.T) {
	sw := NewSwitch()
	defer sw.Close()
	a, err := sw.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sw.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.LocalID(), []byte("ping")); err != nil {
		t.Fatalf("send: %v", err)
	}
	dg, err := b.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if dg.From != a.LocalID() || string(dg.Data) != "ping" {
		t.Errorf("got %v %q", dg.From, dg.Data)
	}
}

func TestSwitchBroadcast(t *testing.T) {
	sw := NewSwitch()
	defer sw.Close()
	a, _ := sw.Attach(ident.New(1))
	b, _ := sw.Attach(ident.New(2))
	c, _ := sw.Attach(ident.New(3))
	if err := a.Send(ident.Broadcast, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []*MemTransport{b, c} {
		dg, err := ep.RecvTimeout(time.Second)
		if err != nil {
			t.Fatalf("recv on %s: %v", ep.LocalID(), err)
		}
		if string(dg.Data) != "hello" {
			t.Errorf("payload %q", dg.Data)
		}
	}
	// Sender must not hear its own broadcast.
	if _, err := a.RecvTimeout(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("sender received own broadcast: %v", err)
	}
}

func TestSwitchDataIsCopied(t *testing.T) {
	sw := NewSwitch()
	defer sw.Close()
	a, _ := sw.Attach(ident.New(1))
	b, _ := sw.Attach(ident.New(2))
	buf := []byte("mutable")
	if err := a.Send(b.LocalID(), buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	dg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(dg.Data) != "mutable" {
		t.Error("datagram aliases sender buffer")
	}
}

func TestSwitchUnknownDestination(t *testing.T) {
	sw := NewSwitch()
	defer sw.Close()
	a, _ := sw.Attach(ident.New(1))
	err := a.Send(ident.New(99), []byte("x"))
	if !errors.Is(err, ErrUnknownDest) {
		t.Errorf("err = %v", err)
	}
}

func TestSwitchDuplicateAndReservedIDs(t *testing.T) {
	sw := NewSwitch()
	defer sw.Close()
	if _, err := sw.Attach(ident.New(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Attach(ident.New(1)); err == nil {
		t.Error("duplicate ID attached")
	}
	if _, err := sw.Attach(ident.Nil); err == nil {
		t.Error("nil ID attached")
	}
	if _, err := sw.Attach(ident.Broadcast); err == nil {
		t.Error("broadcast ID attached")
	}
}

func TestRecvTimeout(t *testing.T) {
	sw := NewSwitch()
	defer sw.Close()
	a, _ := sw.Attach(ident.New(1))
	start := time.Now()
	_, err := a.RecvTimeout(50 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Error("returned too early")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	sw := NewSwitch()
	defer sw.Close()
	a, _ := sw.Attach(ident.New(1))
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	sw := NewSwitch()
	defer sw.Close()
	a, _ := sw.Attach(ident.New(1))
	b, _ := sw.Attach(ident.New(2))
	a.Close()
	if err := a.Send(b.LocalID(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
	// The detached endpoint is unreachable.
	if err := b.Send(a.LocalID(), []byte("x")); !errors.Is(err, ErrUnknownDest) {
		t.Errorf("send to closed = %v", err)
	}
}

func TestSwitchCloseClosesEndpoints(t *testing.T) {
	sw := NewSwitch()
	a, _ := sw.Attach(ident.New(1))
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after hub close: %v", err)
	}
	if _, err := sw.Attach(ident.New(5)); !errors.Is(err, ErrClosed) {
		t.Errorf("attach after close: %v", err)
	}
	// Idempotent close.
	if err := sw.Close(); err != nil {
		t.Error(err)
	}
}

func TestConcurrentSendersReceiveAll(t *testing.T) {
	sw := NewSwitch()
	defer sw.Close()
	dst, _ := sw.Attach(ident.New(100))
	const senders, per = 8, 50

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := sw.Attach(ident.New(uint64(s + 1)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep *MemTransport) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send(dst.LocalID(), []byte{byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		if _, err := dst.RecvTimeout(time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
}

func TestSwitchDeliveryHookDropAndDelay(t *testing.T) {
	s := NewSwitch()
	defer s.Close()
	a, err := s.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}

	var calls int
	s.SetDeliveryHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		calls++
		switch calls {
		case 1:
			return true, 0 // drop the first datagram
		case 2:
			return false, 20 * time.Millisecond // delay the second
		default:
			return false, 0
		}
	})

	for i := byte(1); i <= 3; i++ {
		if err := a.Send(b.LocalID(), []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	// Datagram 1 dropped, 2 delayed: 3 arrives first, then 2.
	dg, err := b.RecvTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Data[0] != 3 {
		t.Errorf("first arrival = %d, want 3 (hook reorder)", dg.Data[0])
	}
	dg, err = b.RecvTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Data[0] != 2 {
		t.Errorf("second arrival = %d, want 2 (delayed)", dg.Data[0])
	}
	if _, err := b.RecvTimeout(50 * time.Millisecond); err == nil {
		t.Error("dropped datagram surfaced")
	}

	s.SetDeliveryHook(nil)
	if err := a.Send(b.LocalID(), []byte{9}); err != nil {
		t.Fatal(err)
	}
	if dg, err = b.RecvTimeout(time.Second); err != nil || dg.Data[0] != 9 {
		t.Errorf("after hook removal: %v %v", dg, err)
	}
}

// TestMemTransportOverflowCounted fills an endpoint nobody reads: what
// its inbox cannot hold is shed and counted in Dropped (DESIGN.md,
// row 1), and what it holds still arrives.
func TestMemTransportOverflowCounted(t *testing.T) {
	sw := NewSwitch()
	defer sw.Close()
	a, _ := sw.Attach(ident.New(1))
	b, _ := sw.Attach(ident.New(2))
	const extra = 10
	for i := 0; i < defaultQueueDepth+extra; i++ {
		if err := a.Send(b.LocalID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Dropped(); got != extra {
		t.Fatalf("Dropped = %d, want %d", got, extra)
	}
	if a.Dropped() != 0 {
		t.Fatalf("sender Dropped = %d", a.Dropped())
	}
	for i := 0; i < defaultQueueDepth; i++ {
		if _, err := b.RecvTimeout(time.Second); err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
	}
}
