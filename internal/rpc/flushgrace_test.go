package rpc

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
)

// wedgeLink builds a link whose peer never reads: the hello's combiner
// blocks inside conn.Write, and one more queued frame leaves the write
// queue provably non-empty. Returns the link and the peer end (closed by
// the caller).
func wedgeLink(t *testing.T, grace time.Duration) (*link, net.Conn) {
	t.Helper()
	c1, c2 := net.Pipe()
	l := newLink(c1, nil, linkHooks{flushGrace: grace})
	// Wait for the hello flusher to become the combiner (stuck in Write).
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.wmu.Lock()
		writing := l.writing
		l.wmu.Unlock()
		if writing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("combiner never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue a frame behind the wedged combiner; with writing=true the send
	// returns immediately, leaving wbuf non-empty for flushPending.
	if err := l.send(&frame{Kind: frameResponse, ID: 1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	l.wmu.Lock()
	queued := len(l.wbuf)
	l.wmu.Unlock()
	if queued == 0 {
		t.Fatal("frame was not queued")
	}
	return l, c2
}

// TestFlushGraceBounds pins the close-time flush bound: a short grace
// waits about that long for the queue to drain, and the zero value is the
// flushGrace constant.
func TestFlushGraceBounds(t *testing.T) {
	t.Run("short", func(t *testing.T) {
		l, c2 := wedgeLink(t, 80*time.Millisecond)
		defer c2.Close()
		start := time.Now()
		l.close()
		elapsed := time.Since(start)
		if elapsed < 60*time.Millisecond {
			t.Fatalf("close returned in %v; expected to wait ~80ms for the flush grace", elapsed)
		}
		if elapsed > 700*time.Millisecond {
			t.Fatalf("close took %v; the 80ms grace did not bound the flush wait", elapsed)
		}
	})
	t.Run("zero-means-default", func(t *testing.T) {
		// The zero value must reproduce the classic 1s bound, so existing
		// nodes keep their behaviour: close must NOT return before a
		// substantial fraction of that second has passed.
		l, c2 := wedgeLink(t, 0)
		defer c2.Close()
		start := time.Now()
		l.close()
		elapsed := time.Since(start)
		if elapsed < 700*time.Millisecond {
			t.Fatalf("close returned in %v with zero grace; expected the 1s default bound", elapsed)
		}
	})
}

// TestSessionTableRoundTrip covers the exported session surface the
// replication layer builds on: record/lookup with sentinel preservation,
// dump/load rebuilding an identical table, FIFO eviction.
func TestSessionTableRoundTrip(t *testing.T) {
	st := newDedupCache(4)
	st.Record("c1", 1, []any{"v1", 7}, nil)
	st.Record("c1", 2, nil, core.ErrOverload)

	if _, _, ok := st.Lookup("c1", 3); ok {
		t.Fatal("lookup of unrecorded seq succeeded")
	}
	res, err, ok := st.Lookup("c1", 1)
	if !ok || err != nil || len(res) != 2 || res[0] != "v1" {
		t.Fatalf("lookup(c1,1) = %v, %v, %v", res, err, ok)
	}
	if _, err, ok := st.Lookup("c1", 2); !ok || !errors.Is(err, core.ErrOverload) {
		t.Fatalf("recorded error lost sentinel identity: %v (ok=%v)", err, ok)
	}

	// Dump/Load must rebuild an equivalent table — the rejoin path.
	st2 := newDedupCache(4)
	st2.Load(st.Dump())
	if st2.Len() != st.Len() {
		t.Fatalf("rebuilt table has %d entries, want %d", st2.Len(), st.Len())
	}
	if _, err, ok := st2.Lookup("c1", 2); !ok || !errors.Is(err, core.ErrOverload) {
		t.Fatalf("rebuilt table lost entry: %v (ok=%v)", err, ok)
	}

	// FIFO eviction at capacity: seqs 1..6 into a table of 4 keeps 3..6.
	for seq := uint64(3); seq <= 6; seq++ {
		st.Record("c1", seq, []any{seq}, nil)
	}
	if _, _, ok := st.Lookup("c1", 1); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	if _, _, ok := st.Lookup("c1", 6); !ok {
		t.Fatal("newest entry missing")
	}
}
