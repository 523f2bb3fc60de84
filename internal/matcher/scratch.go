package matcher

import "github.com/amuse/smc/internal/ident"

// Scratch is caller-owned per-match working state. The bus gives every
// shard worker its own Scratch so the dispatch hot path reuses one set
// of counter arrays and dedup maps without ever crossing a sync.Pool —
// pool Get/Put is cheap but still rendezvouses goroutines on shared
// per-P structures, which is measurable when every published event
// pays it. A Scratch must only be used by one goroutine at a time.
//
// One Scratch works with every matcher kind: FastMatcher uses the
// counting arrays and the dedup set, typedMatcher only the dedup set,
// and sienaMatcher ignores it entirely (its per-match allocations are
// the §V overhead under measurement and are pinned — see
// TestSienaTranslationAllocsPinned).
type Scratch struct {
	// counters[i].n is the number of satisfied constraints of dense[i]
	// in the current match, valid only when counters[i].stamp equals
	// epoch — so the array never needs zeroing between matches.
	counters []counter
	epoch    uint32
	// matched collects fully satisfied filters during one match.
	matched []slot
	// seen dedups subscriber IDs across a match's filters.
	seen map[ident.ID]struct{}
}

// counter keeps a filter's count beside the stamp that validates it: a
// bump touches one cache line.
type counter struct {
	stamp uint32
	n     int32
}

// NewScratch returns an empty Scratch, ready for use with any matcher.
func NewScratch() *Scratch {
	return &Scratch{seen: make(map[ident.ID]struct{}, 8)}
}

// begin opens a counting match over n dense slots: the array grows to
// cover them and a new epoch invalidates every counter at once.
func (sc *Scratch) begin(n int) {
	if len(sc.counters) < n {
		sc.counters = make([]counter, n+16)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stamps are stale, reset
		for i := range sc.counters {
			sc.counters[i].stamp = 0
		}
		sc.epoch = 1
	}
	if sc.seen == nil {
		sc.seen = make(map[ident.ID]struct{}, 8)
	}
	sc.matched = sc.matched[:0]
}

// bump counts one satisfied constraint of the filter in sl, collecting
// it when its last one is in.
func (sc *Scratch) bump(sl slot) {
	c := &sc.counters[sl.idx]
	if c.stamp != sc.epoch {
		c.stamp, c.n = sc.epoch, 0
	}
	c.n++
	if c.n == sl.need {
		sc.matched = append(sc.matched, sl)
	}
}

// ScratchMatcher names the scratch-capable part of Matcher. Every
// engine has it, so it is the same interface.
type ScratchMatcher = Matcher
