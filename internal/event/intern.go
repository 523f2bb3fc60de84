package event

import (
	"sync"
	"sync/atomic"
)

// Attribute-name interning. The receive path decodes the same small
// vocabulary of attribute names over and over (the paper's workloads
// are periodic sensor readings, §II-C: "type", "value", "kind", ...),
// and the seed decoder paid one string allocation per name per packet.
// The intern table maps the raw name bytes of an inbound packet to one
// shared, immutable string, so decoding a well-known name allocates
// nothing and repeated events share storage.
//
// The table is read-mostly and lock-free on the hot path: lookups load
// an immutable map through an atomic pointer (the compiler elides the
// []byte→string conversion for map probes, so a hit costs one hash and
// zero allocations). It grows copy-on-write: names that miss are
// counted under a mutex, and a name seen internPromoteAfter times is
// promoted into a fresh map that replaces the pointer. Both the table
// and the miss-tracking map are bounded so that an adversary streaming
// random names can neither grow the table without limit nor keep the
// counting lock hot forever — once the tracking map fills, unknown
// names stop being counted at the cost of one atomic load.
const (
	// internPromoteAfter is how many decode misses promote a name into
	// the intern table.
	internPromoteAfter = 8
	// internMaxEntries bounds the intern table itself.
	internMaxEntries = 512
	// internTrackMax bounds the miss-tracking map.
	internTrackMax = 4096
)

// internTable is the immutable snapshot the hot path reads.
type internTable struct {
	m map[string]string
}

var (
	interned atomic.Pointer[internTable]

	// internMu guards promotion: the miss counters and the
	// copy-on-write replacement of the table snapshot.
	internMu       sync.Mutex
	internMisses   map[string]int
	internCounting atomic.Bool
)

func init() {
	interned.Store(&internTable{m: map[string]string{}})
	internMisses = make(map[string]int)
	internCounting.Store(true)

	// Seed the core vocabulary: the names and event classes the SMC
	// services themselves emit, plus the sensor/homecare vocabulary of
	// the examples (§II-C's body-sensor readings).
	Intern(
		AttrType, AttrMember, AttrDeviceType,
		TypeNewMember, TypePurgeMember, TypeAlarm,
		"value", "unit", "kind", "source", "name", "reason",
		"target", "policy", "reading", "pulse", "temperature",
		"seq", "level", "state", "patient", "room",
	)
}

// Intern registers strings in the intern table so that decoding them
// from the wire is allocation-free from the first packet. Applications
// with a known event vocabulary call it once at startup; names learned
// from traffic are promoted automatically after internPromoteAfter
// sightings. Beyond internMaxEntries entries additional strings are
// ignored.
func Intern(names ...string) {
	internMu.Lock()
	defer internMu.Unlock()
	cur := interned.Load().m
	next := make(map[string]string, len(cur)+len(names))
	for k, v := range cur {
		next[k] = v
	}
	for _, n := range names {
		if n == "" || len(next) >= internMaxEntries {
			continue
		}
		if _, ok := next[n]; !ok {
			next[n] = n
		}
	}
	interned.Store(&internTable{m: next})
}

// LookupIntern returns the shared interned copy of the string spelled
// by b, if present. A miss is counted towards automatic promotion and
// returns ok=false — the caller decodes the name some other way
// (borrowing it from the packet, or copying). The hit path is
// lock-free and allocation-free.
func LookupIntern(b []byte) (string, bool) {
	if s, ok := interned.Load().m[string(b)]; ok {
		return s, true
	}
	if len(b) > 0 && len(b) <= maxNameLen && internCounting.Load() {
		noteInternMiss(b)
	}
	return "", false
}

// lookupInternStr is LookupIntern for an existing string (promotion on
// Clone swaps borrowed strings for their interned instances). It never
// counts misses: promotion already has an owned copy to fall back to.
func lookupInternStr(s string) (string, bool) {
	v, ok := interned.Load().m[s]
	return v, ok
}

// noteInternMiss counts a decode of an unknown name and promotes it
// once it proves hot.
func noteInternMiss(b []byte) {
	internMu.Lock()
	defer internMu.Unlock()
	n, tracked := internMisses[string(b)]
	if !tracked && len(internMisses) >= internTrackMax {
		// Tracking budget exhausted: learning is over for good.
		// Without this, high-cardinality traffic (unique IDs,
		// stringified readings) would keep paying this mutex on every
		// decode forever; the Store makes the hot path's
		// internCounting.Load() fail first, honouring the documented
		// one-atomic-load bound for unknown strings.
		internCounting.Store(false)
		return
	}
	n++
	if n < internPromoteAfter {
		internMisses[string(b)] = n // inserts an owned copy of the key
		return
	}
	delete(internMisses, string(b))
	cur := interned.Load().m
	if len(cur) >= internMaxEntries {
		// Table full: promotion is over for good, so counting is pure
		// overhead from here on.
		internCounting.Store(false)
		return
	}
	name := string(b)
	next := make(map[string]string, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[name] = name
	interned.Store(&internTable{m: next})
}
