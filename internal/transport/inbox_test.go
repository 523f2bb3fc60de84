package transport

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

var errInboxClosed = errors.New("test: inbox closed")

func TestInbox(t *testing.T) {
	type step struct {
		op   string // put, get, timeout, close
		v    int    // put: the item; get/timeout: the item expected
		ok   bool   // put: queued?
		want error  // get/timeout: the error expected
	}
	for _, tc := range []struct {
		name     string
		depth    int
		steps    []step
		recycled []int
	}{
		{
			name:  "overflow drops the newest, one recycle per drop",
			depth: 2,
			steps: []step{
				{op: "put", v: 1, ok: true}, {op: "put", v: 2, ok: true},
				{op: "put", v: 3}, {op: "put", v: 4},
				{op: "get", v: 1}, {op: "put", v: 5, ok: true},
				{op: "get", v: 2}, {op: "get", v: 5},
			},
			recycled: []int{3, 4},
		},
		{
			name:  "get drains what was queued before close, then reports closed",
			depth: 4,
			steps: []step{
				{op: "put", v: 1, ok: true}, {op: "put", v: 2, ok: true},
				{op: "close"}, {op: "close"},
				{op: "get", v: 1}, {op: "timeout", v: 2},
				{op: "get", want: errInboxClosed}, {op: "timeout", want: errInboxClosed},
			},
		},
		{
			name:  "timeout expires on an empty open inbox",
			depth: 1,
			steps: []step{
				{op: "timeout", want: ErrTimeout},
				{op: "put", v: 7, ok: true}, {op: "timeout", v: 7},
				{op: "timeout", want: ErrTimeout},
			},
		},
		{
			name:     "put after close recycles",
			depth:    4,
			steps:    []step{{op: "close"}, {op: "put", v: 9}, {op: "get", want: errInboxClosed}},
			recycled: []int{9},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var recycled []int
			b := NewInbox(tc.depth, errInboxClosed, func(v int) { recycled = append(recycled, v) })
			for i, s := range tc.steps {
				switch s.op {
				case "put":
					if ok := b.Put(s.v); ok != s.ok {
						t.Fatalf("step %d: Put(%d) = %v, want %v", i, s.v, ok, s.ok)
					}
				case "close":
					b.Close()
				default:
					get := b.Get
					if s.op == "timeout" {
						get = func() (int, error) { return b.GetTimeout(20 * time.Millisecond) }
					}
					if v, err := get(); v != s.v || err != s.want {
						t.Fatalf("step %d: %s = (%d, %v), want (%d, %v)", i, s.op, v, err, s.v, s.want)
					}
				}
			}
			if !reflect.DeepEqual(recycled, tc.recycled) {
				t.Errorf("recycled %v, want %v", recycled, tc.recycled)
			}
		})
	}
}

// TestInboxConcurrent: producers, a consumer and Close race; every item
// is either received or recycled, exactly once, and a blocked Get wakes
// on Close. A Put racing Close may still queue its item behind the
// consumer's back; it stays there for a later Get.
func TestInboxConcurrent(t *testing.T) {
	const producers, each = 4, 500
	var mu sync.Mutex
	seen := make(map[int]int)
	note := func(v int) {
		mu.Lock()
		seen[v]++
		mu.Unlock()
	}
	b := NewInbox(8, errInboxClosed, note)
	var prod, cons sync.WaitGroup
	cons.Add(1)
	go func() {
		defer cons.Done()
		for {
			v, err := b.Get()
			if err != nil {
				return
			}
			note(v)
		}
	}()
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(p int) {
			defer prod.Done()
			for i := 0; i < each; i++ {
				b.Put(p*each + i)
				if p == 0 && i == each/2 {
					b.Close()
				}
			}
		}(p)
	}
	prod.Wait()
	cons.Wait()
	for v, err := b.Get(); err == nil; v, err = b.Get() {
		note(v)
	}
	select {
	case <-b.Done():
	default:
		t.Fatal("Done not closed after Close")
	}
	for v := 0; v < producers*each; v++ {
		if seen[v] != 1 {
			t.Fatalf("item %d seen %d times, want exactly once", v, seen[v])
		}
	}
}
