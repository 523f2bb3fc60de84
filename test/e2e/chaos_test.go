package e2e

import (
	"bufio"
	"flag"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

var (
	chaosActions = flag.Int("chaos.actions", 60, "actions per chaos run")
	chaosCells   = flag.Int("chaos.cells", 2, "cells per chaos run")
	chaosSeeds   = flag.String("chaos.seeds", "1,2", "comma-separated fresh seeds to run")
	chaosRecord  = flag.Bool("chaos.record", true, "append failing seeds to regression_seeds.json")
	chaosBatch   = flag.Int("chaos.batch", 0, "run cells with -batch N event coalescing (0: off)")
	chaosDurable = flag.Bool("chaos.durable", false, "run cells with a disk-backed durable log and one roaming durable subscriber per cell")
	chaosFed     = flag.Bool("chaos.fed", false, "run supervised federation relays between cells (durable cells, write-behind tail sync, link kill/partition/heal actions, I6 fence invariant)")
)

// runChaos executes one full chaos run and returns the first invariant
// violation (or infrastructure failure).
func runChaos(t *testing.T, seed int64, actions, cells int) (err error) {
	t.Logf("chaos run: seed=%d actions=%d cells=%d", seed, actions, cells)
	h, herr := newHarness(t, seed, cells)
	if herr != nil {
		if h != nil {
			h.abort()
		}
		return fmt.Errorf("setup: %w", herr)
	}
	defer func() {
		if err != nil {
			h.abort()
		}
	}()
	if err := h.runActions(actions); err != nil {
		return err
	}
	if err := h.quiesce(); err != nil {
		return err
	}
	return h.teardown()
}

// TestChaos replays the regression-seed database first, then the fresh
// seeds from -chaos.seeds. A failing fresh seed is appended to the
// database so the next run reproduces it before anything else.
func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short")
	}
	regressions, err := loadRegressionSeeds()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regressions {
		r := r
		t.Run(fmt.Sprintf("regression/seed=%d", r.Seed), func(t *testing.T) {
			if err := runChaos(t, r.Seed, r.Actions, r.Cells); err != nil {
				t.Errorf("regression seed %d (%s) failed again: %v", r.Seed, r.Note, err)
			}
		})
	}
	for _, s := range strings.Split(*chaosSeeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("-chaos.seeds: %v", err)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := runChaos(t, seed, *chaosActions, *chaosCells); err != nil {
				if *chaosRecord {
					if rerr := recordRegressionSeed(seed, *chaosActions, *chaosCells, err.Error()); rerr != nil {
						t.Logf("recording failing seed: %v", rerr)
					} else {
						t.Logf("seed %d recorded in %s", seed, regressionSeedsFile)
					}
				}
				t.Errorf("seed %d: %v", seed, err)
			}
		})
	}
}

// TestBinariesEndToEnd exercises the real sensorsim and smctap
// binaries against a real smcd: join over loopback UDP with ephemeral
// ports, a one-shot -stats query, and graceful SIGTERM shutdowns all
// the way down.
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short")
	}
	h := &harness{t: t, binDir: buildBinaries(t), tmpDir: t.TempDir()}
	c := &cellProc{slot: 0, name: "smoke", secret: "smoke-secret"}
	h.cells = []*cellProc{c}
	if err := h.startCell(c, ""); err != nil {
		t.Fatal(err)
	}
	defer h.killCell(c) // no-op after a graceful stop

	// A real sensorsim joins (through JoinCellWithRetry) and streams.
	sensor := exec.Command(filepath.Join(h.binDir, "sensorsim"),
		"-cell", "smoke", "-secret", "smoke-secret",
		"-discovery", c.discovery().String(),
		"-kind", "heart-rate", "-interval", "100ms", "-addr", "127.0.0.1:0")
	sensorOut, err := sensor.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	sensor.Stderr = sensor.Stdout
	if err := sensor.Start(); err != nil {
		t.Fatal(err)
	}
	defer sensor.Process.Kill()
	sensorReady := make(chan struct{})
	var sensorLines []string
	go func() {
		sc := bufio.NewScanner(sensorOut)
		for sc.Scan() {
			line := sc.Text()
			sensorLines = append(sensorLines, line)
			if strings.HasPrefix(line, "ready ") {
				close(sensorReady)
				break
			}
		}
		for sc.Scan() {
			sensorLines = append(sensorLines, sc.Text())
		}
	}()
	select {
	case <-sensorReady:
	case <-time.After(20 * time.Second):
		t.Fatalf("sensorsim never became ready:\n%s", strings.Join(sensorLines, "\n"))
	}
	time.Sleep(500 * time.Millisecond) // let a few readings flow

	// smctap -stats is the one-shot management-plane query.
	stats := exec.Command(filepath.Join(h.binDir, "smctap"),
		"-stats", "-discovery", c.discovery().String(), "-addr", "127.0.0.1:0")
	out, err := stats.CombinedOutput()
	if err != nil {
		t.Fatalf("smctap -stats: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "cell smoke\n") || !strings.Contains(text, "\ndiscovery.members=1\n") {
		t.Fatalf("smctap -stats membership wrong:\n%s", text)
	}
	if !strings.Contains(text, "\nreliable.bus.packets_acquired=") || !strings.Contains(text, "\nreliable.bus.packets_recycled=") {
		t.Fatalf("smctap -stats missing channel counters:\n%s", text)
	}

	// Graceful stop of the sensor: exit status 0.
	if err := sensor.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sensor.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sensorsim exited non-zero: %v\n%s", err, strings.Join(sensorLines, "\n"))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sensorsim did not exit after SIGTERM")
	}

	// Graceful stop of the daemon: drain, leakcheck, exit 0.
	if err := h.stopGraceful(c); err != nil {
		t.Fatal(err)
	}
}
