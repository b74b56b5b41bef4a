package backoff

import (
	"errors"
	"testing"
	"time"
)

// fake makes s record its draws instead of sleeping.
func fake(s *Schedule) *[]time.Duration {
	var draws []time.Duration
	s.wait = func(d time.Duration, _ <-chan struct{}) bool {
		draws = append(draws, d)
		return true
	}
	return &draws
}

var errTransient = errors.New("transient")

// retry is the loop shape the callers share: an attempt, then up to max
// retries, each after one Wait.
func retry(s *Schedule, max int, attempt func() error) (attempts int, err error) {
	for {
		attempts++
		if err = attempt(); err == nil || attempts > max {
			return attempts, err
		}
		if !s.Wait(nil) {
			return attempts, err
		}
	}
}

func TestRetryShapes(t *testing.T) {
	for _, tc := range []struct {
		name         string
		failures     int // attempts that fail before one succeeds
		max          int
		wantAttempts int
		wantWaits    int
		wantErr      bool
	}{
		{name: "success at once", failures: 0, max: 5, wantAttempts: 1, wantWaits: 0},
		{name: "success after k attempts", failures: 3, max: 5, wantAttempts: 4, wantWaits: 3},
		{name: "budget exhausted", failures: 100, max: 5, wantAttempts: 6, wantWaits: 5, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := Schedule{Base: time.Millisecond, Cap: 8 * time.Millisecond, Seed: 1}
			draws := fake(&s)
			calls := 0
			attempts, err := retry(&s, tc.max, func() error {
				if calls++; calls <= tc.failures {
					return errTransient
				}
				return nil
			})
			if attempts != tc.wantAttempts || len(*draws) != tc.wantWaits || (err != nil) != tc.wantErr {
				t.Fatalf("attempts=%d waits=%d err=%v, want attempts=%d waits=%d err=%v",
					attempts, len(*draws), err, tc.wantAttempts, tc.wantWaits, tc.wantErr)
			}
		})
	}
}

func TestDrawsStayWithinClampedSteps(t *testing.T) {
	const base, ceil = 5 * time.Millisecond, 250 * time.Millisecond
	want := []time.Duration{5, 10, 20, 40, 80, 160, 250, 250, 250}
	for seed := uint64(0); seed < 50; seed++ {
		s := Schedule{Base: base, Cap: ceil, Seed: seed}
		draws := fake(&s)
		for i := 0; i < 64; i++ {
			step := s.Step()
			if i < len(want) && step != want[i]*time.Millisecond {
				t.Fatalf("seed %d wait %d: step %v, want %v", seed, i, step, want[i]*time.Millisecond)
			}
			if step > ceil {
				t.Fatalf("seed %d wait %d: step %v exceeds cap %v", seed, i, step, ceil)
			}
			s.Wait(nil)
			if d := (*draws)[i]; d < step/2 || d > step {
				t.Fatalf("seed %d wait %d: draw %v outside [%v, %v]", seed, i, d, step/2, step)
			}
		}
	}
}

func schedule(seed uint64) []time.Duration {
	s := Schedule{Base: 10 * time.Millisecond, Cap: 640 * time.Millisecond, Seed: seed}
	draws := fake(&s)
	for i := 0; i < 16; i++ {
		s.Wait(nil)
	}
	return *draws
}

func TestOneSeedOneSchedule(t *testing.T) {
	a, b := schedule(Seed("client-a")), schedule(Seed("client-a"))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wait %d: %v then %v for the same seed", i, a[i], b[i])
		}
	}
}

// TestSeedsDoNotLockstep: two loops retrying after the same event with
// different seeds must not wait the same amounts.
func TestSeedsDoNotLockstep(t *testing.T) {
	a, b := schedule(Seed("client-a")), schedule(Seed("client-b"))
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("%d of %d waits equal across two seeds:\n%v\n%v", same, len(a), a, b)
	}
}

func TestClosedDoneReturnsAtOnce(t *testing.T) {
	done := make(chan struct{})
	close(done)
	s := Schedule{Base: time.Hour, Cap: time.Hour}
	start := time.Now()
	if s.Wait(done) {
		t.Fatal("Wait on a closed done reported a full wait")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Wait on a closed done took %v", el)
	}
}
