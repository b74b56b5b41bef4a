package rpc

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestDedupEvictionTable pins the at-most-once cache's retention contract:
// completed entries evict FIFO in completion order once the cache exceeds
// capacity, in-flight entries are never evicted, and a retry arriving
// after eviction re-executes (the documented at-most-once window).
func TestDedupEvictionTable(t *testing.T) {
	cases := []struct {
		name     string
		cap      int
		complete []uint64 // seqs completed, in this order
		inflight []uint64 // seqs begun but never completed
		wantLen  int
		// replayed maps seq -> whether a fresh begin() should find the
		// cached entry (false = primary again, i.e. re-executes).
		replayed map[uint64]bool
	}{
		{
			name:     "at capacity everything replays",
			cap:      4,
			complete: []uint64{1, 2, 3, 4},
			wantLen:  4,
			replayed: map[uint64]bool{1: true, 2: true, 3: true, 4: true},
		},
		{
			name:     "beyond capacity evicts oldest completed first",
			cap:      3,
			complete: []uint64{1, 2, 3, 4, 5},
			wantLen:  3,
			replayed: map[uint64]bool{1: false, 2: false, 3: true, 4: true, 5: true},
		},
		{
			name:     "in-flight entries are never evicted",
			cap:      2,
			inflight: []uint64{1},
			complete: []uint64{2, 3, 4, 5},
			wantLen:  3, // 1 (in-flight) + the 2 newest completed
			replayed: map[uint64]bool{1: true, 2: false, 3: false, 4: true, 5: true},
		},
		{
			name:     "replay after eviction re-executes",
			cap:      1,
			complete: []uint64{1, 2},
			wantLen:  1,
			replayed: map[uint64]bool{1: false, 2: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newDedupCache(tc.cap)
			for _, seq := range tc.inflight {
				if _, primary := d.begin(dedupKey{"c", seq}); !primary {
					t.Fatalf("in-flight seq %d: not primary", seq)
				}
			}
			for _, seq := range tc.complete {
				e, primary := d.begin(dedupKey{"c", seq})
				if !primary {
					t.Fatalf("seq %d: not primary", seq)
				}
				d.complete(dedupKey{"c", seq}, e, []any{seq}, "", errNone)
			}
			if got := d.len(); got != tc.wantLen {
				t.Fatalf("len = %d, want %d", got, tc.wantLen)
			}
			for seq, want := range tc.replayed {
				if _, primary := d.begin(dedupKey{"c", seq}); primary == want {
					t.Errorf("seq %d: replayed = %v, want %v", seq, !primary, want)
				}
			}
		})
	}
}

// TestDedupPreload covers seeding the cache from a recovered durability
// ledger: preloaded entries replay immediately, a later record for the
// same key supersedes the earlier response (snapshot table first, then
// log acks in LSN order), and capacity eviction still applies.
func TestDedupPreload(t *testing.T) {
	t.Run("preloaded entry replays without waiting", func(t *testing.T) {
		d := newDedupCache(4)
		d.preload("c", 1, []any{"disk"}, "", errNone)
		e, primary := d.begin(dedupKey{"c", 1})
		if primary {
			t.Fatal("preloaded entry treated as primary")
		}
		if !e.completed() {
			t.Fatal("preloaded entry not completed")
		}
		if e.results[0] != "disk" {
			t.Fatalf("results = %v", e.results)
		}
	})
	t.Run("later record supersedes earlier", func(t *testing.T) {
		d := newDedupCache(4)
		d.preload("c", 1, []any{"snapshot"}, "", errNone)
		d.preload("c", 1, []any{"log"}, "", errNone)
		e, _ := d.begin(dedupKey{"c", 1})
		if e.results[0] != "log" {
			t.Fatalf("results = %v, want the log ack to win", e.results)
		}
		if got := d.len(); got != 1 {
			t.Fatalf("len = %d after re-preload, want 1", got)
		}
	})
	t.Run("capacity applies to preloads", func(t *testing.T) {
		d := newDedupCache(2)
		for seq := uint64(1); seq <= 5; seq++ {
			d.preload("c", seq, []any{seq}, "", errNone)
		}
		if got := d.len(); got != 2 {
			t.Fatalf("len = %d, want 2", got)
		}
		if _, primary := d.begin(dedupKey{"c", 1}); !primary {
			t.Error("evicted preload still replayed")
		}
		if _, primary := d.begin(dedupKey{"c", 5}); primary {
			t.Error("retained preload not replayed")
		}
	})
}

// TestDuplicateWaitHonorsReplayWait is the regression test for the
// unbounded duplicate wait: a duplicate request whose primary execution
// never completes used to block on the dedup entry forever, pinning the
// serve goroutine. Now the node bounds the wait with replayWait and
// answers a typed, retryable ErrReplayTimeout; once the primary finally
// completes, a same-sequence retry replays its result without
// re-executing the body.
func TestDuplicateWaitHonorsReplayWait(t *testing.T) {
	var execs atomic.Int64
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	obj, err := core.New("Slow",
		core.WithEntry(core.EntrySpec{Name: "P", Results: 1, Array: 2,
			Body: func(inv *core.Invocation) error {
				execs.Add(1)
				started <- struct{}{}
				<-release
				inv.Return("v")
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()

	nm := &Metrics{}
	node := NewNodeWith("srv", NodeOptions{Metrics: nm})
	node.replayWait = 50 * time.Millisecond
	if err := node.PublishCallable("Slow", obj); err != nil {
		t.Fatal(err)
	}
	addr, err := node.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	dial := func(retry RetryPolicy) *Remote {
		rem, err := DialWith(addr, DialOptions{ClientID: "dup", Retry: retry})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rem.Close)
		return rem
	}

	// The primary: seq 1 from client "dup", parked in the entry body.
	prim := dial(RetryPolicy{})
	primDone := make(chan error, 1)
	go func() {
		_, err := prim.Call("Slow", "P")
		primDone <- err
	}()
	<-started

	// A second Remote with the same ClientID re-issues seq 1 — the wire
	// shape of a retry whose original is still executing. With no retries
	// allowed the typed timeout must surface to the caller.
	dup := dial(RetryPolicy{Max: 0})
	t0 := time.Now()
	_, err = dup.Call("Slow", "P")
	if !errors.Is(err, ErrReplayTimeout) {
		t.Fatalf("duplicate wait returned %v, want ErrReplayTimeout", err)
	}
	if waited := time.Since(t0); waited > 5*time.Second {
		t.Fatalf("duplicate blocked %v — replayWait not honored", waited)
	}
	if got := nm.ReplayTimeouts.Value(); got == 0 {
		t.Error("ReplayTimeouts counter not incremented")
	}
	if !retryableErr(err) {
		t.Error("ErrReplayTimeout must be retryable (same sequence)")
	}

	// A third Remote, same ClientID and seq, this time with retries: the
	// first attempt times out again, the primary completes, and the retry
	// replays the cached result instead of re-executing.
	dup2 := dial(RetryPolicy{Max: 10, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond})
	res2 := make(chan []any, 1)
	go func() {
		res, err := dup2.Call("Slow", "P")
		if err != nil {
			t.Errorf("retrying duplicate failed: %v", err)
		}
		res2 <- res
	}()
	time.Sleep(60 * time.Millisecond) // let its first attempt hit the timeout
	close(release)

	if err := <-primDone; err != nil {
		t.Fatalf("primary call failed: %v", err)
	}
	select {
	case res := <-res2:
		if len(res) != 1 || res[0] != "v" {
			t.Fatalf("replayed result = %v", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retrying duplicate never completed")
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("body executed %d times, want 1", n)
	}
	_ = net.ErrClosed
}
