package e2e

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/amuse/smc/internal/event"
)

// An actionKind is one move the chaos generator can make against the
// running system. Weights are relative; guards below skip actions whose
// preconditions do not hold (the rng draw is still consumed, so a seed
// replays the same decision stream regardless of timing).
type actionKind int

const (
	actPublish actionKind = iota
	actJoin
	actLeave
	actSubscribe
	actUnsubscribe
	actPartition
	actHeal
	actKill
	actRestart
	actFederate
	actPolicyLoad
	actDegrade
	actRoam
	actReturn
	actLinkKill
	actLinkPartition
	actLinkHeal
	numActions
)

var actionNames = [numActions]string{
	"publish", "join", "leave", "subscribe", "unsubscribe",
	"partition", "heal", "kill", "restart", "federate", "policy-load",
	"degrade", "roam", "return",
	"link-kill", "link-partition", "link-heal",
}

var actionWeights = [numActions]int{
	actPublish:       40,
	actJoin:          6,
	actLeave:         4,
	actSubscribe:     8,
	actUnsubscribe:   4,
	actPartition:     6,
	actHeal:          6,
	actKill:          3,
	actRestart:       6,
	actFederate:      2,
	actPolicyLoad:    2,
	actDegrade:       4,
	actRoam:          4,
	actReturn:        6,
	actLinkKill:      3,
	actLinkPartition: 3,
	actLinkHeal:      4,
}

// maxActors bounds roster growth so long runs stay loopback-friendly.
const maxActors = 12

func (h *harness) drawAction() actionKind {
	total := 0
	for _, w := range actionWeights {
		total += w
	}
	n := h.rng.Intn(total)
	for k, w := range actionWeights {
		if n < w {
			return actionKind(k)
		}
		n -= w
	}
	return actPublish
}

// runActions drives the seeded chaos stream. Only infrastructure
// errors (cannot start a process, cannot bind a socket) abort the run;
// failed publishes and dead peers are the point of the exercise.
func (h *harness) runActions(count int) error {
	for i := 0; i < count; i++ {
		kind := h.drawAction()
		if err := h.apply(kind); err != nil {
			return fmt.Errorf("action %d (%s): %w", i, actionNames[kind], err)
		}
		// Jittered pacing lets traffic interleave with faults.
		time.Sleep(time.Duration(2+h.rng.Intn(8)) * time.Millisecond)
	}
	return nil
}

func (h *harness) apply(kind actionKind) error {
	switch kind {
	case actPublish:
		// Publish from anyone with a device, including partitioned and
		// orphaned actors: their sequence numbers are consumed and the
		// deliveries legitimately become gaps. Async so a doomed send
		// cannot stall the action loop.
		as := h.liveActors(nil)
		if len(as) == 0 {
			return nil
		}
		a := h.pick(as)
		cmpl, err := a.dev.Client.PublishAsync(a.chaosEvent())
		if err == nil && cmpl != nil {
			go func() {
				_ = cmpl.Wait()
				cmpl.Recycle()
			}()
		}
		return nil

	case actJoin:
		if len(h.actors) >= maxActors {
			return nil
		}
		cell := h.rng.Intn(len(h.cells))
		subscribe := h.rng.Intn(2) == 0
		if !h.cellAlive(cell) {
			return nil
		}
		_, err := h.newActor(cell, subscribe)
		if err != nil {
			// A join can lose the race with a concurrent kill; that is
			// chaos, not an infrastructure failure.
			h.logf("join actor failed (tolerated): %v", err)
		}
		return nil

	case actLeave:
		// Durable actors roam (actRoam) instead of leaving: their
		// consumer name must survive the run for the I5 lag oracle.
		as := h.liveActors(func(a *actor) bool { return !a.partition && a.durable == "" })
		if len(as) <= 2 {
			return nil // keep a quorum of traffic sources
		}
		a := h.pick(as)
		_ = a.dev.Leave()
		a.alive = false
		a.left = true
		return nil

	case actSubscribe:
		as := h.liveActors(func(a *actor) bool { return !a.subscribed && !a.partition })
		if len(as) == 0 {
			return nil
		}
		a := h.pick(as)
		a.filter = h.subscriberFilter()
		if err := a.dev.Client.Subscribe(a.filter); err != nil {
			h.logf("subscribe failed (tolerated): %v", err)
			a.filter = nil
			return nil
		}
		a.subscribed = true
		return nil

	case actUnsubscribe:
		as := h.liveActors(func(a *actor) bool { return a.subscribed && !a.partition && a.durable == "" })
		if len(as) <= 1 {
			return nil // keep at least one observer
		}
		a := h.pick(as)
		if err := a.dev.Client.Unsubscribe(a.filter); err != nil {
			h.logf("unsubscribe failed (tolerated): %v", err)
			return nil
		}
		a.subscribed = false
		a.filter = nil
		return nil

	case actPartition:
		as := h.liveActors(func(a *actor) bool { return !a.partition })
		if len(as) <= 2 {
			return nil
		}
		a := h.pick(as)
		a.tr.SetSendHook(dropAll)
		a.partition = true
		h.logf("actor %d partitioned", a.id)
		return nil

	case actHeal:
		var parts []*actor
		for _, a := range h.actors {
			if a.partition || a.lossy {
				parts = append(parts, a)
			}
		}
		if len(parts) == 0 {
			return nil
		}
		a := h.pick(parts)
		a.tr.SetSendHook(nil)
		a.partition = false
		a.lossy = false
		h.logf("actor %d healed", a.id)
		return nil

	case actKill:
		live := h.liveCellSlots()
		if len(live) <= 1 {
			return nil // keep one cell making progress
		}
		slot := live[h.rng.Intn(len(live))]
		h.killCell(h.cells[slot])
		h.killed[slot] = true
		h.orphanActors(slot)
		return nil

	case actRestart:
		dead := h.killedSlots()
		if len(dead) == 0 {
			return nil
		}
		slot := dead[h.rng.Intn(len(dead))]
		if err := h.startCell(h.cells[slot], ""); err != nil {
			return err
		}
		delete(h.killed, slot)
		h.rejoinCellActors(slot)
		return nil

	case actFederate:
		// With -chaos.fed the supervised relays own federation; the
		// fire-and-forget relay would only muddy the I6 oracle.
		if *chaosFed || len(h.cells) < 2 || len(h.relays) >= 1 {
			return nil
		}
		src := h.rng.Intn(len(h.cells))
		dst := h.rng.Intn(len(h.cells))
		if src == dst || h.relayPairs[[2]int{src, dst}] ||
			!h.cellAlive(src) || !h.cellAlive(dst) {
			return nil
		}
		if err := h.startRelay(src, dst); err != nil {
			h.logf("federate failed (tolerated): %v", err)
			return nil
		}
		h.relayPairs[[2]int{src, dst}] = true
		return nil

	case actPolicyLoad:
		// A graceful rolling restart with a policy file: the daemon must
		// drain, exit clean (leakcheck enforced), and come back serving
		// the new configuration.
		live := h.liveCellSlots()
		if len(live) <= 1 {
			return nil
		}
		slot := live[h.rng.Intn(len(live))]
		c := h.cells[slot]
		if err := h.stopGraceful(c); err != nil {
			return err // mid-run shutdown contract violation is a finding
		}
		if err := h.startCell(c, h.benignPolicyFile()); err != nil {
			return err
		}
		h.rejoinCellActors(slot)
		h.logf("cell %s reloaded with policies", c.name)
		return nil

	case actDegrade:
		// Degraded link: loss and reordering between real processes,
		// harsher than a clean partition because traffic still flows.
		as := h.liveActors(func(a *actor) bool { return !a.partition && !a.lossy })
		if len(as) <= 2 {
			return nil
		}
		a := h.pick(as)
		a.tr.SetSendHook(lossyHook(h.rng.Int63()))
		a.lossy = true
		h.logf("actor %d degraded (loss+reorder)", a.id)
		return nil

	case actRoam:
		// A durable subscriber walks out of range: silent close, no
		// leave. Events published while it is away become replay debt.
		var durs []*actor
		for _, a := range h.actors {
			if a.durable != "" && a.alive && !a.left {
				durs = append(durs, a)
			}
		}
		if len(durs) == 0 {
			return nil
		}
		a := h.pick(durs)
		_ = a.dev.Close()
		a.alive = false
		h.logf("durable actor %d (%s) roamed away", a.id, a.durable)
		return nil

	case actReturn:
		// A roaming durable subscriber comes back and resumes from its
		// last consumed cursor; the cell replays the gap.
		var durs []*actor
		for _, a := range h.actors {
			if a.durable != "" && !a.alive && !a.left && h.cellAlive(a.cell) {
				durs = append(durs, a)
			}
		}
		if len(durs) == 0 {
			return nil
		}
		a := h.pick(durs)
		if err := h.joinActor(a); err != nil {
			h.logf("durable actor %d return failed (tolerated, retried at quiesce): %v", a.id, err)
		} else {
			h.logf("durable actor %d (%s) returned", a.id, a.durable)
		}
		return nil

	case actLinkKill:
		// The federation gateway crashes: both memberships close, the
		// supervisor rejoins and resumes from the cursor floor.
		if len(h.fedRelays) == 0 {
			return nil
		}
		r := h.fedRelays[h.rng.Intn(len(h.fedRelays))]
		r.kill()
		h.logf("fed relay %d->%d killed", r.src, r.dst)
		return nil

	case actLinkPartition:
		// The link loses its remote cell without being told; only the
		// liveness probe can turn this into a reconnect.
		if len(h.fedRelays) == 0 {
			return nil
		}
		r := h.fedRelays[h.rng.Intn(len(h.fedRelays))]
		r.partition()
		h.logf("fed relay %d->%d partitioned", r.src, r.dst)
		return nil

	case actLinkHeal:
		if len(h.fedRelays) == 0 {
			return nil
		}
		r := h.fedRelays[h.rng.Intn(len(h.fedRelays))]
		r.heal()
		h.logf("fed relay %d->%d healed", r.src, r.dst)
		return nil
	}
	return nil
}

// subscriberFilter always matches the chaos stream: the oracle needs
// subscribers that see every publisher in their cell.
func (h *harness) subscriberFilter() *event.Filter {
	return event.NewFilter().WhereType("chaos")
}

func (h *harness) liveCellSlots() []int {
	var out []int
	for slot := range h.cells {
		if h.cellAlive(slot) {
			out = append(out, slot)
		}
	}
	return out
}

// killedSlots lists the dead cell slots in order, so a seed picks the
// same cell to restart on every run (map order is random).
func (h *harness) killedSlots() []int {
	var dead []int
	for slot := range h.killed {
		dead = append(dead, slot)
	}
	sort.Ints(dead)
	return dead
}

// orphanActors marks a killed cell's actors dead; their devices fail
// fast thanks to the short give-up horizon.
func (h *harness) orphanActors(slot int) {
	for _, a := range h.actors {
		if a.cell != slot || !a.alive {
			continue
		}
		_ = a.dev.Close()
		a.alive = false
	}
}

// rejoinCellActors reconnects a restarted cell's surviving actors.
func (h *harness) rejoinCellActors(slot int) {
	for _, a := range h.actors {
		if a.cell != slot || a.left || a.alive {
			continue
		}
		if err := h.joinActor(a); err != nil {
			h.logf("actor %d rejoin after restart failed (tolerated, retried at quiesce): %v", a.id, err)
		}
	}
}

// benignPolicyFile writes (once) an obligation that never fires, so a
// policy load changes configuration without perturbing the oracle.
func (h *harness) benignPolicyFile() string {
	path := filepath.Join(h.tmpDir, "benign.pol")
	if _, err := os.Stat(path); err != nil {
		src := `obligation chaos-noop { on type = "never-matches" do log("noop") }` + "\n"
		_ = os.WriteFile(path, []byte(src), 0o644)
	}
	return path
}
