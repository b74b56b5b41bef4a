package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCallAsyncDrainIdleBurst is the regression test for the completion
// queue's double buffer (ROADMAP item 0): every drain of a non-empty batch
// is followed by an empty one (the dispatcher loops until the queue is
// empty), and that empty drain once left doneq and doneSpare on one backing
// array. The next burst then had deliverLocked appending into the slots the
// dispatcher was walking and zeroing outside o.mu: a nil callback panic, or
// silently lost and duplicated completions. Each round here drains, goes
// idle, then bursts from several goroutines so deliveries overlap the walk;
// every callback must run exactly once. Run under -race.
func TestCallAsyncDrainIdleBurst(t *testing.T) {
	o, err := New("X",
		WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1,
			Body: func(inv *Invocation) error { inv.Return(inv.Param(0)); return nil }}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o) // idempotent; the white-box check below closes first

	const (
		rounds   = 200
		callers  = 4
		perBurst = 32
	)
	hits := make([]atomic.Int32, rounds*callers*perBurst)
	var wrong atomic.Int32
	for r := 0; r < rounds; r++ {
		var done sync.WaitGroup
		done.Add(callers * perBurst)
		var submit sync.WaitGroup
		for c := 0; c < callers; c++ {
			submit.Add(1)
			go func(base int) {
				defer submit.Done()
				for i := 0; i < perBurst; i++ {
					id := base + i
					ok := o.CallAsync("P", []Value{id}, func(res []Value, err error) {
						if err != nil || len(res) != 1 || res[0] != id {
							wrong.Add(1)
						}
						hits[id].Add(1)
						done.Done()
					})
					if !ok {
						t.Errorf("CallAsync refused call %d", id)
						done.Done()
					}
				}
			}((r*callers + c) * perBurst)
		}
		submit.Wait()
		done.Wait() // drained; the dispatcher's trailing empty drain is the idle step
	}
	if n := wrong.Load(); n > 0 {
		t.Errorf("%d callbacks saw another call's outcome", n)
	}
	for id := range hits {
		if n := hits[id].Load(); n != 1 {
			t.Fatalf("callback %d ran %d times, want exactly once", id, n)
		}
	}

	// White box, after Close has joined the dispatcher (the only other
	// goroutine touching doneSpare): the two buffers are distinct arrays.
	mustClose(t, o)
	q, spare := o.doneq[:cap(o.doneq)], o.doneSpare[:cap(o.doneSpare)]
	if len(q) > 0 && len(spare) > 0 && &q[0] == &spare[0] {
		t.Fatal("doneq and doneSpare share one backing array")
	}
}
