package smc

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/amuse/smc/internal/bus"
	"github.com/amuse/smc/internal/event"
	"github.com/amuse/smc/internal/ident"
	"github.com/amuse/smc/internal/transport"
)

// StallShards holds every worker shard of b in a blocking local
// handler, then fills every shard queue until TryPublish refuses. The
// stall lasts until the returned release is called (or the test ends).
func StallShards(t testing.TB, b *bus.Bus) (release func()) {
	t.Helper()
	hold := make(chan struct{})
	release = sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)
	entered := make(chan struct{}, b.Shards())
	if err := b.Local("stall").Subscribe(event.NewFilter().WhereType("stall"), func(*event.Event) {
		select {
		case entered <- struct{}{}:
		default: // a stall event that queued behind a held shard, run after the release
		}
		<-hold
	}); err != nil {
		t.Fatal(err)
	}
	// Each stall event comes from a new service; one that lands on a
	// shard held already waits in its queue and enters no handler.
	var svcs []*bus.LocalService
	for held := 0; held < b.Shards(); {
		svc := b.Local(fmt.Sprintf("stall-%d", len(svcs)))
		svcs = append(svcs, svc)
		if err := svc.TryPublish(event.NewTyped("stall")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-entered:
			held++
		case <-time.After(20 * time.Millisecond):
		}
	}
	for _, svc := range svcs {
		for svc.TryPublish(event.NewTyped("stall-fill")) == nil {
		}
	}
	return release
}

// TestImportRefusedByClosedHomeBus: an import waiting for room on a
// stalled home bus returns when that bus closes, counted as dropped.
func TestImportRefusedByClosedHomeBus(t *testing.T) {
	sw := transport.NewSwitch()
	defer sw.Close()
	busTr, err := sw.Attach(ident.New(1))
	if err != nil {
		t.Fatal(err)
	}
	discTr, err := sw.Attach(ident.New(2))
	if err != nil {
		t.Fatal(err)
	}
	home, err := NewCell(busTr, discTr, Config{Cell: "home", Secret: []byte("s")})
	if err != nil {
		t.Fatal(err)
	}
	home.Start()
	release := StallShards(t, home.Bus)
	l := &FederationLink{home: home, local: home.Bus.Local("federation:remote"), remoteCell: "remote"}
	imported := make(chan struct{})
	go func() {
		l.importEvent(nil, event.NewTyped("alarm"))
		close(imported)
	}()
	closed := make(chan error, 1)
	go func() { closed <- home.Close() }()
	select {
	case <-imported:
	case <-time.After(5 * time.Second):
		t.Fatal("import still waiting after the home bus closed")
	}
	if st := l.Stats(); st.Dropped != 1 || st.Imported != 0 {
		t.Errorf("Dropped = %d, Imported = %d; want 1, 0", st.Dropped, st.Imported)
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

func TestFedCursorFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := fedCursorPath(dir, "fed-home-gw/1")
	if filepath.Dir(path) != dir {
		t.Fatalf("sanitised path escaped the dir: %s", path)
	}
	if _, _, ok := readFedCursor(path); ok {
		t.Fatal("missing cursor file read as valid")
	}
	if err := writeFedCursor(path, 0xfeedface, 4242); err != nil {
		t.Fatal(err)
	}
	epoch, cursor, ok := readFedCursor(path)
	if !ok || epoch != 0xfeedface || cursor != 4242 {
		t.Fatalf("round trip: epoch=%x cursor=%d ok=%v", epoch, cursor, ok)
	}
	// Overwrite is atomic and wins.
	if err := writeFedCursor(path, 0xfeedface, 5000); err != nil {
		t.Fatal(err)
	}
	if _, cursor, _ = readFedCursor(path); cursor != 5000 {
		t.Fatalf("overwrite lost: cursor=%d", cursor)
	}
}

// TestFedCursorFileCorruptionDegradesToZero: any damage — torn write,
// flipped byte, wrong magic — must read as "no position" (full
// replay), never as a wrong position.
func TestFedCursorFileCorruptionDegradesToZero(t *testing.T) {
	dir := t.TempDir()
	path := fedCursorPath(dir, "gw")
	if err := writeFedCursor(path, 7, 99); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := readFedCursor(path); ok {
			t.Fatalf("corruption at byte %d read as valid", i)
		}
	}
	if err := os.WriteFile(path, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := readFedCursor(path); ok {
		t.Fatal("torn cursor file read as valid")
	}
}
