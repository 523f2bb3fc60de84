package harness

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Harness spans. A traced run records, from the benchmark's own files
// and around calls into the product's public functions, three spans
// per event that share the event's id (publisher, seq):
//
//	publish_call  inside PublishAsync / Local.Publish
//	ack           publish call → completion resolved (members only)
//	deliver       publish call → handed to one subscriber (one per delivery)
//
// Their parent is the event's root span (publish call → last
// delivery), which is derived when the trace is written. Spans go into
// preallocated per-goroutine rings, so recording is one store and the
// rings are only walked after the phase has ended.

type spanKind uint8

const (
	spanPublishCall spanKind = iota
	spanAck
	spanDeliver
)

var spanNames = [...]string{"publish_call", "ack", "deliver"}

type span struct {
	seq        uint64
	start, end int64 // run clock, ns
	lane       int16 // delivering lane; -1 for publisher-side spans
	pub        uint8
	kind       spanKind
}

// spanRingSize bounds what one goroutine keeps: the newest 64 Ki spans.
const spanRingSize = 1 << 16

// spanBuf is one goroutine's span ring.
type spanBuf struct {
	spans []span
	n     uint64 // spans ever added; the ring keeps the last len(spans)
}

func newSpanBuf() *spanBuf { return &spanBuf{spans: make([]span, spanRingSize)} }

func (b *spanBuf) add(kind spanKind, pub, lane int, seq uint64, start, end int64) {
	b.spans[b.n&(spanRingSize-1)] = span{
		seq: seq, start: start, end: end, lane: int16(lane), pub: uint8(pub), kind: kind,
	}
	b.n++
}

// drain returns the spans still in the ring (unordered) and resets it.
func (b *spanBuf) drain() []span {
	n := b.n
	if n > spanRingSize {
		n = spanRingSize
	}
	out := append([]span(nil), b.spans[:n]...)
	b.n = 0
	return out
}

// eventID keys the spans of one published event.
type eventID struct {
	pub uint8
	seq uint64
}

// hopStats is what the steady phase's spans reduce to.
type hopStats struct {
	publishCall, ack, fanout *Histogram
}

// drainSpans collects every ring of the run. No recording goroutine
// may be active (the phase has quiesced).
func (r *run) drainSpans() (recorded uint64, spans []span) {
	for _, p := range r.pubs {
		recorded += p.spans.n
		spans = append(spans, p.spans.drain()...)
	}
	for _, l := range r.lanes {
		recorded += l.spans.n
		spans = append(spans, l.spans.drain()...)
	}
	return recorded, spans
}

// reduceSpans splits each delivery's response time at the moment the
// bus acknowledged the event: ack (client encode → reliable →
// transport → bus receive) and fan-out (shard queue → matcher → proxy
// → reliable → transport → decode → inbox). A delivery that beat its
// own acknowledgement back has a fan-out of zero. Bus-local events
// have no ack span; their fan-out is the whole response.
func reduceSpans(spans []span, local bool) hopStats {
	h := hopStats{publishCall: NewHistogram(), ack: NewHistogram(), fanout: NewHistogram()}
	acked := make(map[eventID]int64)
	for _, s := range spans {
		switch s.kind {
		case spanPublishCall:
			h.publishCall.Record(s.end - s.start)
		case spanAck:
			h.ack.Record(s.end - s.start)
			acked[eventID{s.pub, s.seq}] = s.end
		}
	}
	for _, s := range spans {
		if s.kind != spanDeliver {
			continue
		}
		from := s.start
		if !local {
			ackEnd, ok := acked[eventID{s.pub, s.seq}]
			if !ok {
				continue // the event's ack span has left its ring
			}
			from = ackEnd
		}
		h.fanout.Record(max(s.end-from, 0))
	}
	return h
}

// traceFileEvents bounds the trace file: the newest events only, so
// the file stays a few MiB however long the run was.
const traceFileEvents = 4000

// writeTrace writes the newest events' spans as JSON: one object per
// span with name, start_ns, end_ns, parent and event id; each event
// gets a derived root span named "event".
func writeTrace(path string, workload string, recorded uint64, spans []span) error {
	byEvent := make(map[eventID][]span)
	for _, s := range spans {
		id := eventID{s.pub, s.seq}
		byEvent[id] = append(byEvent[id], s)
	}
	ids := make([]eventID, 0, len(byEvent))
	for id, ss := range byEvent {
		// Keep whole events only: the publish call and at least one
		// more span.
		if len(ss) >= 2 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].seq != ids[j].seq {
			return ids[i].seq > ids[j].seq
		}
		return ids[i].pub < ids[j].pub
	})
	if len(ids) > traceFileEvents {
		ids = ids[:traceFileEvents]
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"clock\":\"ns since run start, monotonic\",\"spans_recorded\":%d,\"events_written\":%d,\"spans\":[\n",
		workload, recorded, len(ids))
	first := true
	emit := func(name string, start, end int64, parent, id string, lane int) {
		if !first {
			w.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%q,\"event\":%q", name, start, end, parent, id)
		if lane >= 0 {
			fmt.Fprintf(w, ",\"lane\":%d", lane)
		}
		w.WriteString("}")
	}
	for _, id := range ids {
		ss := byEvent[id]
		name := fmt.Sprintf("p%d#%d", id.pub, id.seq)
		start, end := ss[0].start, ss[0].end
		for _, s := range ss {
			start, end = min(start, s.start), max(end, s.end)
		}
		emit("event", start, end, "", name, -1)
		for _, s := range ss {
			emit(spanNames[s.kind], s.start, s.end, "event:"+name, name, int(s.lane))
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
