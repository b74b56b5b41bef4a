package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phasePlan cuts a phase into a discarded warm-up — its first sixth — and n
// measured slices over the rest. Every reported figure is a per-slice value
// reduced over the measured slices by sliceStat's rule.
type phasePlan struct {
	warm, slice time.Duration
	n           int
}

// baseSlices is the number of measured slices of a phase whose call count is
// unknown or small.
const baseSlices = 5

// slicesFor is how finely to cut a phase expected to carry so many calls: in
// multiples of baseSlices, as long as a slice still has some 1000 calls. The
// finer the slices, the steadier their median, and the likelier some of them
// are free of the host's interference; see sliceStat.
func slicesFor(expectedCalls float64) int {
	k := int(expectedCalls * 5 / 6 / (baseSlices * 1000))
	return baseSlices * max(1, min(k, 5))
}

// planFor cuts a phase into its warm-up and n measured slices.
func planFor(phase time.Duration, n int) phasePlan {
	warm := phase / 6
	return phasePlan{warm: warm, slice: (phase - warm) / time.Duration(n), n: n}
}

// index is the slice an instant (as an offset from the phase's start) falls
// in: 0 for the warm-up, 1..n for the measured slices, n+1 once it is over.
func (p phasePlan) index(at time.Duration) int {
	if at < p.warm {
		return 0
	}
	return min(1+int((at-p.warm)/p.slice), p.n+1)
}

// maxInflight caps the open loop's outstanding calls: they are goroutines
// multiplexed on a few connections, and past this depth the queue is the
// system's, not the generator's, to report.
const maxInflight = 256

// driver is the system under test as the generator sees it. Closed loops
// call next from clients() goroutines, each issuing its following call when
// the last returned; the open loop hands scheduled op i to a worker through
// at. Both report whether the call was write-class so writes can be timed
// apart from reads, and an error for a call that failed.
type driver interface {
	clients() int
	next(client int) (write bool, err error)
}

// scheduled is a driver that can run an externally scheduled op, which the
// open loop needs; local workloads are closed-loop only and do not have it.
type scheduled interface {
	driver
	at(i, worker int) (write bool, err error)
}

// workerRec is one generator goroutine's private tallies by slice (0 is the
// warm-up), read only after the goroutine has been joined. The pad keeps
// neighbours off one cache line.
type workerRec struct {
	ok     []int64 // successful calls by the slice they completed in
	failed []int64
	lat    [][]int64 // sampled latencies (ns)
	wlat   [][]int64 // the write-class subset
	_      [64]byte
}

func newWorkerRecs(workers int, p phasePlan, capPerSlice int) []workerRec {
	recs := make([]workerRec, workers)
	for i := range recs {
		r := &recs[i]
		r.ok, r.failed = make([]int64, p.n+1), make([]int64, p.n+1)
		r.lat, r.wlat = make([][]int64, p.n+1), make([][]int64, p.n+1)
		for s := range r.lat {
			r.lat[s] = make([]int64, 0, capPerSlice)
			r.wlat[s] = make([]int64, 0, capPerSlice)
		}
	}
	return recs
}

// sample appends within the preallocated capacity only, so a phase's
// allocation count is the system's and not the recorder's.
func sample(buf *[]int64, v int64) {
	if len(*buf) < cap(*buf) {
		*buf = append(*buf, v)
	}
}

// phaseResult is what one phase measured.
type phaseResult struct {
	CallsPerS sliceStat `json:"calls_per_s"`
	P50us     sliceStat `json:"p50_us"`
	P99us     sliceStat `json:"p99_us"`
	P999us    sliceStat `json:"p99_9_us"`
	PooledP99 float64   `json:"pooled_p99_us"` // over all measured slices together; not gated
	WriteP50  sliceStat `json:"write_p50_us"`
	Samples   int       `json:"samples_per_slice"` // median sample count behind the percentiles
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Late      int64     `json:"deadline_misses"`
	Allocs    float64   `json:"allocs_per_call"`

	// WakeP50us is, per slice, how late a generator thread sleeping in
	// nanosleep(2) woke up (median): the open loop's dispatcher, the closed
	// loop's wake probe. WakeRefus is the calibrated value the scaled figures
	// are brought to. Both are absent from a phase reported raw.
	WakeP50us *sliceStat `json:"wake_p50_us,omitempty"`
	WakeRefus float64    `json:"wake_ref_us,omitempty"`

	// Open loop only.
	Rate         float64    `json:"rate,omitempty"`
	LateP99us    *sliceStat `json:"gen_late_p99_us,omitempty"` // the dispatcher's lateness against its own schedule
	InflightPeak int64      `json:"gen_inflight_peak,omitempty"`
}

// deadline is the latency past which a completed call counts as failed.
const deadline = 2 * time.Second

// summarize folds the workers' tallies into per-slice figures. durs are the
// measured wall-clock lengths of each slice. wake, when given, holds each
// slice's wake-up samples (ns): throughput and the two medians of a slice
// whose wake-ups were slower than wakeRef µs are then scaled to that wake-up
// time (see sliceStat); the tail percentiles stay raw.
func summarize(recs []workerRec, durs []time.Duration, wake [][]int64, wakeRef float64) phaseResult {
	var res phaseResult
	var rate, p50, p99, p999, wp50, counts []float64
	var pooled []int64
	for s := 1; s < len(durs); s++ {
		var ok int64
		var lat, wlat []int64
		for i := range recs {
			ok += recs[i].ok[s]
			res.Failed += recs[i].failed[s]
			lat = append(lat, recs[i].lat[s]...)
			wlat = append(wlat, recs[i].wlat[s]...)
		}
		res.Attempted += ok
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		sort.Slice(wlat, func(i, j int) bool { return wlat[i] < wlat[j] })
		res.Late += int64(len(lat) - sort.Search(len(lat), func(i int) bool { return lat[i] > int64(deadline) }))
		rate = append(rate, float64(ok)/durs[s].Seconds())
		p50 = append(p50, float64(percentile(lat, 0.50))/1e3)
		p99 = append(p99, float64(percentile(lat, 0.99))/1e3)
		p999 = append(p999, float64(percentile(lat, 0.999))/1e3)
		wp50 = append(wp50, float64(percentile(wlat, 0.50))/1e3)
		counts = append(counts, float64(len(lat)))
		pooled = append(pooled, lat...)
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
	res.PooledP99 = float64(percentile(pooled, 0.99)) / 1e3
	res.Attempted += res.Failed
	res.P99us, res.P999us = statOf(p99, false), statOf(p999, false)
	res.Samples = int(median(counts))
	if wake == nil {
		res.CallsPerS, res.P50us, res.WriteP50 = statOf(rate, true), statOf(p50, false), statOf(wp50, false)
		return res
	}
	var wakeP50, slower, faster []float64
	for _, w := range wake[1:] {
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		us := float64(percentile(w, 0.50)) / 1e3
		wakeP50 = append(wakeP50, us)
		// One-sided: a box is never quicker than quiet, so a slice whose
		// wake-ups were no slower than at calibration (or that the probe
		// missed) is reported as measured.
		by := max(us, wakeRef) / wakeRef
		slower, faster = append(slower, by), append(faster, 1/by)
	}
	ws := statOf(wakeP50, false)
	res.WakeP50us, res.WakeRefus = &ws, wakeRef
	res.CallsPerS, res.P50us, res.WriteP50 = scaledStat(rate, slower), scaledStat(p50, faster), scaledStat(wp50, faster)
	return res
}

// wakeProbe samples, until the clock says the phase is over, how late a
// thread of this process sleeping in nanosleep(2) wakes up: a locked thread
// sleeps probeEvery at a time and records the overshoot under the slice it
// fell in. It is the closed loop's counterpart of the open-loop dispatcher's
// lateness. The returned function joins the probe and hands over its samples.
func wakeProbe(clock *sliceClock, n int) (join func() [][]int64) {
	const probeEvery = 250 * time.Microsecond
	out := make(chan [][]int64, 1)
	go func() {
		unlock := preciseSleeper()
		defer unlock()
		late := make([][]int64, n+1)
		for s := range late {
			late[s] = make([]int64, 0, 8192)
		}
		for {
			s := int(clock.cur.Load())
			if s > n {
				break
			}
			t0 := time.Now()
			sleepPrecise(probeEvery)
			late[s] = append(late[s], int64(time.Since(t0)-probeEvery))
		}
		out <- late
	}()
	return func() [][]int64 { return <-out }
}

// sliceClock advances the shared slice index on the plan's clock and records
// how long each slice really was. Index n+1 means the phase is over.
type sliceClock struct {
	cur  atomic.Int32
	durs []time.Duration
}

// run blocks for the whole phase. atMeasured runs as the first measured
// slice begins and atEnd as the last one ends, for the allocation counters.
func (c *sliceClock) run(p phasePlan, atMeasured, atEnd func()) {
	c.durs = make([]time.Duration, p.n+1)
	start := time.Now()
	last := start
	for s := 0; s <= p.n; s++ {
		if s == 1 {
			atMeasured()
		}
		time.Sleep(time.Until(start.Add(p.warm + time.Duration(s)*p.slice)))
		now := time.Now()
		c.durs[s] = now.Sub(last)
		last = now
		if s == p.n {
			atEnd()
		}
		c.cur.Store(int32(s + 1))
	}
}

// closedOpts shapes a closed-loop phase.
type closedOpts struct {
	phase       time.Duration // warm-up included
	sampleEvery int           // one call in this many is timed
	// readsOnly keeps write-class calls out of the main latency population
	// (they are still in the write one). For a workload whose two classes
	// are equally frequent and differ a thousandfold, the median of the
	// mixture would sit on the boundary between them and mean nothing.
	readsOnly bool
	// wakeRef, when positive, runs the wake probe beside the clients and
	// reports throughput and medians scaled to that wake-up time (µs); see
	// sliceStat.
	wakeRef float64
	// release, when set, is called once the phase is over to unblock callers
	// still parked inside the system (a consumer on an empty buffer); their
	// calls are discarded, not counted.
	release func()
}

// closedLoop runs d.clients() goroutines, each issuing its next call when
// the last one returned, for one phase.
func closedLoop(d driver, o closedOpts) phaseResult {
	// A slice of about a second: five slices for every five measured seconds.
	plan := planFor(o.phase, baseSlices*max(1, min(int(math.Round(o.phase.Seconds()/6)), 5)))
	n := d.clients()
	recs := newWorkerRecs(n, plan, max(400000/n, 64))
	var clock sliceClock
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &recs[c]
			for k := 0; ; k++ {
				timed := k%o.sampleEvery == 0
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				write, err := d.next(c)
				s := int(clock.cur.Load())
				if s > plan.n {
					return
				}
				if err != nil {
					w.failed[s]++
					continue
				}
				w.ok[s]++
				if timed {
					lat := int64(time.Since(t0))
					if write {
						sample(&w.wlat[s], lat)
					}
					if !write || !o.readsOnly {
						sample(&w.lat[s], lat)
					}
				}
			}
		}(c)
	}
	var probe func() [][]int64
	if o.wakeRef > 0 {
		probe = wakeProbe(&clock, plan.n)
	}
	var m0, m1 runtime.MemStats
	clock.run(plan, func() { runtime.ReadMemStats(&m0) }, func() { runtime.ReadMemStats(&m1) })
	if o.release != nil {
		o.release()
	}
	wg.Wait()
	var wake [][]int64
	if probe != nil {
		wake = probe()
	}
	res := summarize(recs, clock.durs, wake, o.wakeRef)
	if calls := res.Attempted; calls > 0 {
		res.Allocs = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
	}
	return res
}

// job is one scheduled call: op index and the instant, as an offset from the
// phase start, at which it was due.
type job struct {
	i   int
	due time.Duration
}

// sharedTally is the open loop's recorder. Which worker serves which call is
// up to the scheduler, so the workers share one buffer per slice — sized to
// the number of calls due in it — and claim slots with an atomic counter.
type sharedTally struct {
	ok, failed, n, wn []atomic.Int64
	lat, wlat         [][]int64
}

func newSharedTally(slices, perSlice int) *sharedTally {
	t := &sharedTally{
		ok: make([]atomic.Int64, slices), failed: make([]atomic.Int64, slices),
		n: make([]atomic.Int64, slices), wn: make([]atomic.Int64, slices),
		lat: make([][]int64, slices), wlat: make([][]int64, slices),
	}
	for s := range t.lat {
		t.lat[s], t.wlat[s] = make([]int64, perSlice), make([]int64, perSlice)
	}
	return t
}

func (t *sharedTally) record(s int, lat int64, write bool) {
	t.ok[s].Add(1)
	if i := t.n[s].Add(1) - 1; int(i) < len(t.lat[s]) {
		t.lat[s][i] = lat
	}
	if write {
		if i := t.wn[s].Add(1) - 1; int(i) < len(t.wlat[s]) {
			t.wlat[s][i] = lat
		}
	}
}

// openLoop issues calls on a fixed clock at rate calls/s for one phase,
// whatever the system does: each call is timed from the instant it was due,
// so a stall charges every call that was due during it (no coordinated
// omission). Calls run on a fixed set of worker goroutines, which is the
// in-flight cap; how late the dispatcher itself ran is reported — and, when
// wakeRef is positive, used: the medians are then scaled to a dispatcher that
// wakes wakeRef µs late (see sliceStat).
func openLoop(d scheduled, rate float64, phase time.Duration, wakeRef float64) phaseResult {
	total := int(rate * phase.Seconds())
	plan := planFor(phase, slicesFor(float64(total)))
	perSlice := int(rate*max(plan.warm, plan.slice).Seconds()) + 2
	tally := newSharedTally(plan.n+1, perSlice)
	jobs := make(chan job, total) // never blocks the dispatcher: lateness is the clock's alone
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < maxInflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				if n := inflight.Add(1); n > peak.Load() {
					peak.Store(n) // racy max: a peak missed by one is still the peak's size
				}
				write, err := d.at(j.i, w)
				inflight.Add(-1)
				// The population a call belongs to is set by when it was due.
				s := min(plan.index(j.due), plan.n)
				if err != nil {
					tally.failed[s].Add(1)
					continue
				}
				tally.record(s, int64(time.Since(start)-j.due), write)
			}
		}(w)
	}

	lateness := make([][]int64, plan.n+1)
	for s := range lateness {
		lateness[s] = make([]int64, 0, perSlice)
	}
	var m0, m1 runtime.MemStats
	func() {
		unlock := preciseSleeper()
		defer unlock()
		measuring := false
		for i := 0; i < total; i++ {
			due := time.Duration(float64(i) / rate * float64(time.Second))
			s := min(plan.index(due), plan.n)
			if s == 1 && !measuring {
				measuring = true
				runtime.ReadMemStats(&m0)
			}
			now := time.Since(start)
			if now < due {
				sleepPrecise(due - now)
				now = time.Since(start)
			}
			lateness[s] = append(lateness[s], int64(now-due))
			jobs <- job{i, due}
		}
		close(jobs)
	}()
	wg.Wait()
	runtime.ReadMemStats(&m1)

	rec := workerRec{ok: make([]int64, plan.n+1), failed: make([]int64, plan.n+1), lat: make([][]int64, plan.n+1), wlat: make([][]int64, plan.n+1)}
	durs := make([]time.Duration, plan.n+1)
	for s := range durs {
		durs[s] = plan.slice
		rec.ok[s], rec.failed[s] = tally.ok[s].Load(), tally.failed[s].Load()
		rec.lat[s] = tally.lat[s][:min(int(tally.n[s].Load()), len(tally.lat[s]))]
		rec.wlat[s] = tally.wlat[s][:min(int(tally.wn[s].Load()), len(tally.wlat[s]))]
	}
	var wake [][]int64
	if wakeRef > 0 {
		wake = lateness
	}
	res := summarize([]workerRec{rec}, durs, wake, wakeRef)
	if wake != nil {
		res.CallsPerS = statOf(res.CallsPerS.Raw, true) // the schedule's rate, not a measurement
	}
	res.Rate = rate
	res.InflightPeak = peak.Load()
	var late []float64
	for _, l := range lateness[1:] {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		late = append(late, float64(percentile(l, 0.99))/1e3)
	}
	lateStat := statOf(late, false)
	res.LateP99us = &lateStat
	if calls := res.Attempted; calls > 0 {
		res.Allocs = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
	}
	return res
}
