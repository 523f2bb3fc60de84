package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/amuse/smc/internal/ident"
)

func newUDP(t *testing.T) *UDPTransport {
	t.Helper()
	tr, err := NewUDPTransport()
	if err != nil {
		t.Skipf("UDP unavailable in this environment: %v", err)
	}
	t.Cleanup(func() {
		if err := tr.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return tr
}

func TestUDPIDDerivedFromSocket(t *testing.T) {
	tr := newUDP(t)
	addr := tr.LocalAddr()
	want, err := ident.FromUDPAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	if tr.LocalID() != want {
		t.Errorf("ID = %s, want %s (from %v)", tr.LocalID(), want, addr)
	}
	ip, port := tr.LocalID().Addr()
	if port != addr.Port || !ip.Equal(addr.IP.To4().To16()) && !ip.To4().Equal(addr.IP.To4()) {
		t.Errorf("Addr() = %v:%d, socket %v", ip, port, addr)
	}
}

func TestUDPUnicastRoundTrip(t *testing.T) {
	a := newUDP(t)
	b := newUDP(t)
	if err := a.Send(b.LocalID(), []byte("over udp")); err != nil {
		t.Fatalf("send: %v", err)
	}
	dg, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if string(dg.Data) != "over udp" {
		t.Errorf("got %q", dg.Data)
	}
	// And the reverse direction.
	if err := b.Send(a.LocalID(), []byte("reply")); err != nil {
		t.Fatal(err)
	}
	dg, err = a.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatalf("recv reply: %v", err)
	}
	if string(dg.Data) != "reply" {
		t.Errorf("reply = %q", dg.Data)
	}
}

func TestUDPOversizedDatagramRejected(t *testing.T) {
	a := newUDP(t)
	err := a.Send(ident.New(1), make([]byte, MaxUDPDatagram+1))
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v", err)
	}
}

func TestUDPCloseUnblocksRecv(t *testing.T) {
	a, err := NewUDPTransport()
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("recv err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
	// Send after close fails; double close is fine.
	if err := a.Send(ident.New(1), []byte("x")); err == nil {
		t.Error("send after close succeeded")
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestUDPPinnedPort(t *testing.T) {
	opt, err := WithAddr("127.0.0.1:0") // OS-chosen, as the prototype
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewUDPTransport(opt)
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer tr.Close()
	if tr.LocalAddr().Port == 0 {
		t.Error("no port bound")
	}
}

func TestUDPSendHookDropAndDelay(t *testing.T) {
	a, err := NewUDPTransport()
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer a.Close()
	b, err := NewUDPTransport()
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer b.Close()

	var calls int
	a.SetSendHook(func(from, to ident.ID, data []byte) (bool, time.Duration) {
		calls++
		switch calls {
		case 1:
			return true, 0
		case 2:
			return false, 30 * time.Millisecond
		default:
			return false, 0
		}
	})
	for i := byte(1); i <= 3; i++ {
		if err := a.Send(b.LocalID(), []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	dg, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Data[0] != 3 {
		t.Errorf("first arrival = %d, want 3 (datagram 1 dropped, 2 delayed)", dg.Data[0])
	}
	dg, err = b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Data[0] != 2 {
		t.Errorf("second arrival = %d, want 2", dg.Data[0])
	}
	if _, err := b.RecvTimeout(50 * time.Millisecond); err == nil {
		t.Error("dropped datagram surfaced")
	}
}

// TestUDPSendBatchRoundTrip pushes a batch through SendBatch over real
// loopback sockets and collects every datagram on the other side.
func TestUDPSendBatchRoundTrip(t *testing.T) {
	a := newUDP(t)
	b := newUDP(t)

	const n = 39
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = []byte(fmt.Sprintf("batch-datagram-%03d", i))
	}
	if err := a.SendBatch(b.LocalID(), bufs); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}

	got := make(map[string]bool, n)
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < n && time.Now().Before(deadline) {
		dg, err := b.RecvTimeout(time.Until(deadline))
		if err != nil {
			break
		}
		got[string(dg.Data)] = true
		dg.Recycle()
	}
	// Loopback does not reorder or drop in practice; require the full
	// batch so a silently truncated batch shows up as a failure.
	if len(got) != n {
		t.Fatalf("received %d/%d batched datagrams", len(got), n)
	}
	for i := range bufs {
		if !got[string(bufs[i])] {
			t.Errorf("missing datagram %d", i)
		}
	}
}

// TestUDPSendBatchOversize: an oversize datagram fails the batch with
// ErrTooLarge.
func TestUDPSendBatchOversize(t *testing.T) {
	a := newUDP(t)
	b := newUDP(t)
	bufs := [][]byte{[]byte("ok"), make([]byte, MaxUDPDatagram+1)}
	if err := a.SendBatch(b.LocalID(), bufs); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("SendBatch oversize = %v, want ErrTooLarge", err)
	}
}
