// Package backoff is the one retry schedule the runtime's retry loops
// share: exponential from a base, clamped to a cap, each wait drawn from
// [step/2, step] by a stateless hash of (seed, attempt). Delays replay
// exactly from the seed, and loops seeded apart do not retry in lockstep.
package backoff

import "time"

// Schedule is one retry loop's backoff. A loop keeps it on its stack, so
// a call that never retries allocates nothing.
type Schedule struct {
	Base, Cap time.Duration // the first step; steps double up to exactly Cap
	Seed      uint64        // picks the jitter draws

	n    int                                              // waits taken
	wait func(d time.Duration, done <-chan struct{}) bool // tests' fake timer; nil is real time
}

// Step reports the step the next Wait draws from.
func (s *Schedule) Step() time.Duration {
	d := s.Base
	for i := 0; i < s.n && d < s.Cap; i++ {
		d *= 2
	}
	return min(d, s.Cap)
}

// Wait sleeps one draw from [Step/2, Step] and advances the schedule. It
// returns false as soon as done is closed, without finishing the wait.
func (s *Schedule) Wait(done <-chan struct{}) bool {
	d := s.Step() / 2
	d += time.Duration(mix(s.Seed+uint64(s.n)*0x9e3779b97f4a7c15) % uint64(d+1))
	s.n++
	if s.wait != nil {
		return s.wait(d, done)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// Seed hashes an identity, such as a client ID, into a Seed (FNV-1a).
func Seed(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
	return h
}

// mix is the SplitMix64 finalizer (Steele et al.).
func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
