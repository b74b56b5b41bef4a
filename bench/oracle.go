package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// op is one generated key-value call. The stream is a function of the seed
// alone; the program under test only ever sees the generated calls.
type op struct {
	key   int32
	write bool
}

// genOps draws n ops: Zipf(s) keys over [0, keys) and a writeFrac share of
// writes, both from internal/workload's seeded generators.
func genOps(seed uint64, n, keys int, s, writeFrac float64) ([]op, error) {
	zipf, err := workload.NewZipf(workload.NewRNG(seed), keys, s)
	if err != nil {
		return nil, err
	}
	mix, err := workload.NewOpMix(seed^0x9e3779b97f4a7c15, keys, writeFrac)
	if err != nil {
		return nil, err
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{key: int32(zipf.Next()), write: mix.Next().Write}
	}
	return ops, nil
}

// maxWrites bounds the writes one run may issue; each needs a slot in the
// oracle's stamp tables. 2^19 is several times what the fastest workload
// writes in a run, and running out fails the run rather than wrapping.
const maxWrites = 1 << 19

// kvOracle checks a register-per-key store from the outside while many calls
// are in flight. Every write stores a value no other write stores (its
// ordinal), so a read's result names the write it saw. The rule is the
// single-register core of linearizability: a read issued after write B was
// acknowledged must not return a write A that was itself acknowledged before
// B was even issued — "the last acknowledged write or a later one". The same
// rule, applied to values earlier reads returned, forbids a regressing read.
// It never flags a legal history: writes that overlap may land in either
// order and then the rule does not constrain which one a read sees.
type kvOracle struct {
	start time.Time
	// floor[key] is the latest issue stamp among writes known complete
	// (acknowledged, or seen by a completed read) on that key.
	floor      []atomic.Int64
	issue, ack []atomic.Int64 // by write ordinal; stamps are ns since start, +1
	key        []int32        // by write ordinal
	writes     atomic.Int64
	violations atomic.Int64
	firstBad   atomic.Pointer[string]
}

func newKVOracle(keys int) *kvOracle {
	return &kvOracle{
		start: time.Now(),
		floor: make([]atomic.Int64, keys),
		issue: make([]atomic.Int64, maxWrites),
		ack:   make([]atomic.Int64, maxWrites),
		key:   make([]int32, maxWrites),
	}
}

func (o *kvOracle) stamp() int64 { return int64(time.Since(o.start)) + 1 }

func (o *kvOracle) bad(format string, args ...any) {
	o.violations.Add(1)
	msg := fmt.Sprintf(format, args...)
	o.firstBad.CompareAndSwap(nil, &msg)
}

func raise(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// beginWrite returns the value to write: the write's ordinal, always > 0.
func (o *kvOracle) beginWrite(key int32) (int64, error) {
	w := o.writes.Add(1)
	if w >= maxWrites {
		return 0, fmt.Errorf("oracle: more than %d writes in one run", maxWrites)
	}
	o.key[w] = key
	o.issue[w].Store(o.stamp())
	return w, nil
}

func (o *kvOracle) ackWrite(key int32, w int64) {
	o.ack[w].Store(o.stamp())
	raise(&o.floor[key], o.issue[w].Load())
}

// beginRead snapshots what the read is entitled to see at least.
func (o *kvOracle) beginRead(key int32) int64 { return o.floor[key].Load() }

// endRead judges a completed read. Values <= 0 are the preload: older than
// every write of the run.
func (o *kvOracle) endRead(key int32, floor, val int64) {
	if val <= 0 {
		if floor > 0 {
			o.bad("key %d: read returned the preloaded value after a write to it was acknowledged", key)
		}
		return
	}
	// The issue stamp is stored after key[val], so loading it first orders
	// this goroutine's read of key[val] after the writer's store.
	if val >= maxWrites || o.issue[val].Load() == 0 || o.key[val] != key {
		o.bad("key %d: read returned %d, which no write stored there", key, val)
		return
	}
	if a := o.ack[val].Load(); a != 0 && a < floor {
		o.bad("key %d: read returned write %d, acknowledged before a later write that was itself acknowledged before the read", key, val)
		return
	}
	raise(&o.floor[key], o.issue[val].Load())
}

// written lists the keys with at least one acknowledged write.
func (o *kvOracle) written() []int32 {
	var keys []int32
	for k := range o.floor {
		if o.floor[k].Load() > 0 {
			keys = append(keys, int32(k))
		}
	}
	return keys
}
