package diskhead

import (
	"slices"
	"sync"
	"testing"
	"time"

	alps "repro"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{QueueMax: -1}); err == nil {
		t.Fatal("negative QueueMax succeeded")
	}
}

func TestSingleSeek(t *testing.T) {
	s, err := New(Config{QueueMax: 4, Start: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Seek(80); err != nil {
		t.Fatal(err)
	}
	services, total := s.Stats()
	if services != 1 || total != 30 {
		t.Fatalf("Stats = %d services, %d travel; want 1, 30", services, total)
	}
}

// TestSSTFOrdering pre-loads requests while the scheduler is saturated by a
// first seek, then checks the service order matches greedy SSTF, not FIFO.
func TestSSTFOrdering(t *testing.T) {
	s, err := New(Config{QueueMax: 16, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tracks := []int{90, 10, 50, 95, 12}
	var wg sync.WaitGroup
	for _, tr := range tracks {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			if err := s.Seek(tr); err != nil {
				t.Errorf("Seek(%d): %v", tr, err)
			}
		}(tr)
	}
	wg.Wait()
	_, total := s.Stats()
	fifoWorst := FIFOSeek(0, tracks)
	greedy := GreedySSTF(0, tracks)
	// The manager services whichever requests are attached when it selects;
	// under full pre-attachment it equals greedy. Concurrent arrival can
	// make it slightly worse, but it must never exceed the FIFO distance of
	// the worst ordering and should be close to greedy.
	if total > fifoWorst*2 {
		t.Fatalf("online SSTF travel %d, FIFO %d, greedy %d", total, fifoWorst, greedy)
	}
	if total < greedy {
		t.Fatalf("travel %d below offline greedy %d: accounting bug", total, greedy)
	}
}

// TestSSTFBeatsFIFOOnRandomLoad: with all 64 requests pending before the
// head serves any, the online SSTF schedule travels no further than FIFO.
// A sequencer holds the manager at its first scan until the object counts
// 64 pending Seeks; without the hold they could trickle in one by one and
// the online order would degenerate towards FIFO.
func TestSSTFBeatsFIFOOnRandomLoad(t *testing.T) {
	// With many pending requests, SSTF's mean travel must be well below
	// FIFO's on the same request set.
	tr, err := workload.NewTracks(7, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tracks := make([]int, 64)
	for i := range tracks {
		tracks[i] = tr.Next()
	}
	greedy := GreedySSTF(500, tracks)
	fifo := FIFOSeek(500, tracks)
	if greedy*2 > fifo {
		t.Fatalf("greedy SSTF %d not clearly better than FIFO %d on random load", greedy, fifo)
	}

	hold := make(holdScans)
	s, err := newScheduler(Config{QueueMax: 64, Start: 500},
		alps.WithObjectOptions(alps.ObjectOptions{Sequencer: hold}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := sync.OnceFunc(func() { close(hold) })
	defer release() // runs before Close: a failed wait must not leave the head held
	var wg sync.WaitGroup
	for _, track := range tracks {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			if err := s.Seek(track); err != nil {
				t.Errorf("Seek: %v", err)
			}
		}(track)
	}
	waitSeeks(t, s, func(st alps.EntryStats) bool { return st.Pending == len(tracks) })
	release()
	wg.Wait()
	_, total := s.Stats()
	if total > fifo {
		t.Fatalf("online SSTF travel %d exceeds FIFO %d", total, fifo)
	}
}

// holdScans is a sequencer that holds every manager scan until it is
// closed.
type holdScans chan struct{}

func (h holdScans) Point(p alps.SeqPoint, _, _ string, _ uint64) {
	if p == core.SeqMgrScan {
		<-h
	}
}

// waitSeeks waits until the Seek entry's counters satisfy cond.
func waitSeeks(t *testing.T, s *Scheduler, cond func(alps.EntryStats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := s.Object().EntryStats("Seek")
		if cond(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Seek entry stuck at %+v", st)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestGreedyAndFIFOHelpers(t *testing.T) {
	if got := GreedySSTF(0, nil); got != 0 {
		t.Fatalf("GreedySSTF(empty) = %d", got)
	}
	if got := FIFOSeek(10, []int{20, 5}); got != 10+15 {
		t.Fatalf("FIFOSeek = %d, want 25", got)
	}
	if got := GreedySSTF(10, []int{20, 5}); got != 5+15 {
		t.Fatalf("GreedySSTF = %d, want 20 (5 first)", got)
	}
}

func TestPolicyString(t *testing.T) {
	tests := []struct {
		p    Policy
		want string
	}{
		{SSTF, "SSTF"}, {SCAN, "SCAN"}, {FCFS, "FCFS"}, {Policy(9), "Policy(9)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.p), got, tt.want)
		}
	}
}

func TestConfigValidationPolicyFields(t *testing.T) {
	if _, err := New(Config{QueueMax: 4, Cylinders: -1}); err == nil {
		t.Fatal("negative cylinders succeeded")
	}
}

// TestSCANSweepsInOneDirection pre-loads requests on both sides of the
// head; SCAN must serve everything ahead (ascending) before reversing,
// unlike SSTF which may zig-zag.
func TestSCANSweepsInOneDirection(t *testing.T) {
	s, err := New(Config{
		QueueMax:  16,
		Start:     500,
		Cylinders: 1000,
		Policy:    SCAN,
		TrackCost: 50 * time.Microsecond, // let the queue build
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tracks := []int{600, 400, 700, 300, 550, 450}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var served []int
	for _, tr := range tracks {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			if err := s.Seek(tr); err != nil {
				t.Errorf("Seek(%d): %v", tr, err)
				return
			}
			mu.Lock()
			served = append(served, tr)
			mu.Unlock()
		}(tr)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	// After the first (arrival-dependent) pick, the order must be a single
	// ascending run followed by a single descending run, or vice versa —
	// i.e. at most one direction change after the first service.
	changes := 0
	for i := 2; i < len(served); i++ {
		prevUp := served[i-1] > served[i-2]
		curUp := served[i] > served[i-1]
		if prevUp != curUp {
			changes++
		}
	}
	if changes > 1 {
		t.Fatalf("service order %v has %d direction changes; SCAN allows at most 1", served, changes)
	}
}

// TestFCFSServesInArrivalOrder: each Seek is submitted once the object has
// counted the one before it, and the service order is read from the
// object's trace — the Accepted events, whose call ids map back to the
// tracks in arrival order — not from the order the callers return in.
func TestFCFSServesInArrivalOrder(t *testing.T) {
	rec := alps.NewTrace(0)
	s, err := newScheduler(Config{QueueMax: 16, Start: 0, Policy: FCFS, TrackCost: 200 * time.Microsecond},
		alps.WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	tracks := []int{900, 10, 800, 20, 700}
	for i, tr := range tracks {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			if err := s.Seek(tr); err != nil {
				t.Errorf("Seek: %v", err)
			}
		}(tr)
		waitSeeks(t, s, func(st alps.EntryStats) bool { return st.Calls == uint64(i+1) })
	}
	wg.Wait()
	track := map[uint64]int{} // call id -> track
	var served []int
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.Arrived:
			track[e.CallID] = tracks[len(track)]
		case trace.Accepted:
			served = append(served, track[e.CallID])
		}
	}
	if !slices.Equal(served, tracks) {
		t.Fatalf("FCFS order %v, want %v", served, tracks)
	}
}
