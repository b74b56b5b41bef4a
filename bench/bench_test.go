package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// stallTarget is a one-at-a-time server that serves instantly except for one
// op, on which it stalls everything behind it.
type stallTarget struct {
	mu      sync.Mutex
	stallAt int
	stall   time.Duration
}

func (s *stallTarget) clients() int           { return 1 }
func (s *stallTarget) next(int) (bool, error) { return false, nil }
func (s *stallTarget) at(i, _ int) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i == s.stallAt {
		time.Sleep(s.stall)
	}
	return false, nil
}

// TestOpenLoopTimesFromDue is the coordinated-omission check: when the
// target stalls, every call that was due during the stall must be charged
// its wait. Timed from when it was sent, only the one stalled call would
// look slow and the slice's median would stay near zero.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const rate, slice = 1000.0, 50 * time.Millisecond
	// A 300 ms phase: 50 ms of warm-up and five measured slices of 50 ms. Op
	// 100 is due at 100 ms, the start of measured slice 2, and blocks the
	// server for 100 ms: every call due in slice 2 waits 50 ms or more.
	target := &stallTarget{stallAt: 100, stall: 100 * time.Millisecond}
	res := openLoop(target, rate, 6*slice, 0)
	if res.Failed != 0 {
		t.Fatalf("%d calls failed", res.Failed)
	}
	if res.P50us.Worst < 45_000 {
		t.Errorf("the stalled slice's median latency is %.0f us; calls due during the stall were not timed from their due instant", res.P50us.Worst)
	}
	if res.P50us.Value > 5_000 {
		t.Errorf("a slice far from the stall has median latency %.0f us", res.P50us.Value)
	}
	if want := int64(rate * slice.Seconds() * baseSlices); res.Attempted != want {
		t.Errorf("attempted %d calls in the measured slices, schedule has %d", res.Attempted, want)
	}
}

func TestPercentileAndSliceArithmetic(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.01, 10}, {1, 100}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median even = %v", got)
	}
	// Of five slices the best is reported; a wild one must not move it.
	if st := statOf([]float64{7, 3, 9, 5, 100}, false); st.Value != 3 || st.Median != 7 || st.Worst != 100 {
		t.Errorf("statOf(latency) = %+v", st)
	}
	if st := statOf([]float64{7, 3, 9, 5, 1}, true); st.Value != 9 || st.Median != 5 || st.Worst != 1 {
		t.Errorf("statOf(rate) = %+v", st)
	}
	// Of ten, the second best: the slice at the best fifth.
	if st := statOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, false); st.Value != 2 || st.Worst != 10 {
		t.Errorf("statOf(ten slices) = %+v", st)
	}
	// A busy phase is cut finer, in multiples of five, down to ~1000 calls a slice.
	for _, c := range []struct {
		calls float64
		n     int
	}{{0, 5}, {9000, 5}, {12000, 10}, {25200, 20}, {1e6, 25}} {
		n := slicesFor(c.calls)
		if p := planFor(6*time.Second, n); n != c.n || p.n != c.n || p.warm != time.Second || p.slice != 5*time.Second/time.Duration(c.n) {
			t.Errorf("planFor(6s, slicesFor(%v calls)) = %+v, want %d slices", c.calls, p, c.n)
		}
	}
	if p := planFor(6*time.Second, baseSlices); p.index(0) != 0 || p.index(time.Second) != 1 || p.index(5999*time.Millisecond) != 5 || p.index(7*time.Second) != 6 {
		t.Errorf("plan index: %d %d %d %d", p.index(0), p.index(time.Second), p.index(5999*time.Millisecond), p.index(7*time.Second))
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3, spread := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 || math.Abs(spread-1) > 1e-12 {
		t.Errorf("quartileSpread = %v %v %v %v", q1, med, q3, spread)
	}
}

// TestSummarizeBestOfSlices checks that a phase's figures are per-slice
// values reduced to the best one, with the warm-up slice left out.
func TestSummarizeBestOfSlices(t *testing.T) {
	plan := phasePlan{n: baseSlices}
	rec := newWorkerRecs(1, plan, 16)[0]
	durs := make([]time.Duration, plan.n+1)
	for s := range durs {
		durs[s] = time.Second
		rec.ok[s] = int64(100 * s) // slice s completes 100*s calls
		for i := 0; i < 10; i++ {
			rec.lat[s] = append(rec.lat[s], int64(s)*1000) // and every call of it takes s us
		}
	}
	rec.ok[0], rec.lat[0] = 1_000_000, []int64{9e9} // the warm-up must not count
	res := summarize([]workerRec{rec}, durs, nil, 0)
	if res.CallsPerS.Value != 500 || res.CallsPerS.Median != 300 || res.CallsPerS.Worst != 100 {
		t.Errorf("calls/s = %+v", res.CallsPerS)
	}
	if res.P50us.Value != 1 || res.P50us.Median != 3 || res.P99us.Value != 1 {
		t.Errorf("p50 = %+v p99 = %+v", res.P50us, res.P99us)
	}
	if res.Attempted != 1500 || res.Late != 0 {
		t.Errorf("attempted %d late %d", res.Attempted, res.Late)
	}
}

// TestSummarizeScalesToWakeRef: with wake-up samples given, each slice's rate
// and medians are brought to the reference wake-up time before the median
// slice is taken, and the tail stays as measured.
func TestSummarizeScalesToWakeRef(t *testing.T) {
	plan := phasePlan{n: baseSlices}
	rec := newWorkerRecs(1, plan, 16)[0]
	durs := make([]time.Duration, plan.n+1)
	wake := make([][]int64, plan.n+1)
	for s := range durs {
		durs[s] = time.Second
		// Slice s runs on a box whose wake-ups take s times the reference:
		// its calls take s times as long and 1/s as many complete.
		rec.ok[s] = int64(600 / max(s, 1))
		for i := 0; i < 10; i++ {
			rec.lat[s] = append(rec.lat[s], int64(s)*50_000)
			rec.wlat[s] = append(rec.wlat[s], int64(s)*70_000)
		}
		wake[s] = []int64{int64(s) * 10_000, int64(s) * 10_000, 9e9} // the median, not the mean
	}
	res := summarize([]workerRec{rec}, durs, wake, 10)
	for name, st := range map[string]sliceStat{"calls/s": res.CallsPerS, "p50": res.P50us, "write p50": res.WriteP50} {
		want := map[string]float64{"calls/s": 600, "p50": 50, "write p50": 70}[name]
		for i, v := range st.Slices {
			if math.Abs(v-want) > 1e-9 {
				t.Errorf("%s: slice %d scaled to %v, want %v (raw %v)", name, i+1, v, want, st.Raw[i])
			}
		}
		if math.Abs(st.Value-want) > 1e-9 || len(st.Raw) != plan.n {
			t.Errorf("%s = %+v, want %v", name, st, want)
		}
	}
	if res.P99us.Value != 50 || res.P99us.Worst != 250 {
		t.Errorf("p99 must stay raw: %+v", res.P99us)
	}
	if res.WakeP50us == nil || res.WakeP50us.Median != 30 || res.WakeRefus != 10 {
		t.Errorf("wake = %+v ref %v", res.WakeP50us, res.WakeRefus)
	}
	// One-sided: wake-ups quicker than the reference scale nothing.
	for s := range wake {
		wake[s] = []int64{2_000}
	}
	if res := summarize([]workerRec{rec}, durs, wake, 10); res.P50us.Slices[4] != res.P50us.Raw[4] || res.CallsPerS.Slices[4] != res.CallsPerS.Raw[4] || res.P50us.Value != 150 {
		t.Errorf("quick wake-ups scaled the slices: %+v", res.P50us)
	}
	// The median of the products, and the product farthest from it.
	if st := scaledStat([]float64{10, 20, 30}, []float64{1, 1, 2}); st.Value != 20 || st.Worst != 60 {
		t.Errorf("scaledStat = %+v", st)
	}
}

// TestDecomposeSelfTime builds one request by hand: the client's span holds
// the leader's, which holds two overlapping follower syncs and the apply.
func TestDecomposeSelfTime(t *testing.T) {
	spans := []span{
		{Name: "rpc.call", ID: 7, Write: true, Start: 0, End: 100},
		{Name: "replica.call", ID: 7, Write: true, Start: 10, End: 90},
		{Name: "wal.fsync", Write: true, Start: 20, End: 50},
		{Name: "wal.fsync", Write: true, Start: 40, End: 70}, // overlaps the first: the union is 50, not 60
		{Name: "core.call", ID: 7, Write: true, Start: 72, End: 80},
		{Name: "core.call", ID: 7, Write: true, Start: 95, End: 130}, // a follower's apply outliving the request: clipped to 5
		{Name: "wal.fsync", Write: true, Start: 150, End: 160},       // after the request: nobody's
		{Name: "core.call", ID: 99, Write: true, Start: 30, End: 35}, // another request's id: nobody's here
		{Name: "rpc.call", Write: false, Start: 200, End: 230},       // a read ...
		{Name: "core.call", Write: false, Start: 210, End: 215},      // ... joined by containment
		{Name: "core.call", Write: false, Start: 400, End: 405},      // a read-class span inside no read
	}
	d := decompose(spans, "rpc.call")
	if len(d.roots) != 2 {
		t.Fatalf("%d roots", len(d.roots))
	}
	w := d.roots[0]
	want := map[string]int64{"rpc": 15, "replica": 22, "wal": 50, "core": 13}
	var sum int64
	for layer, v := range want {
		if w.self[layer] != v {
			t.Errorf("write request: self[%s] = %d, want %d", layer, w.self[layer], v)
		}
		sum += w.self[layer]
	}
	if sum != w.total || w.total != 100 {
		t.Errorf("self times sum to %d, request took %d", sum, w.total)
	}
	r := d.roots[1]
	if r.write || r.total != 30 || r.self["rpc"] != 25 || r.self["core"] != 5 {
		t.Errorf("read request: %+v", r)
	}
	if got := d.sumRatio(true); got != 1 {
		t.Errorf("sumRatio(write) = %v", got)
	}
	if got := d.p50("wal.fsync", ":w"); got != 0.03 {
		t.Errorf("p50(wal.fsync) = %v us", got)
	}
}

// Fakes for the three call surfaces a published value may have.
type plainInner struct{ err error }

func (p *plainInner) CallCtx(_ context.Context, entry string, params ...any) ([]any, error) {
	return []any{entry, len(params)}, p.err
}

type asyncInner struct {
	plainInner
	accept bool
}

func (a *asyncInner) CallAsync(entry string, params []any, done func([]any, error)) bool {
	if a.accept {
		done([]any{"async", entry}, a.err)
	}
	return a.accept
}

type sessionInner struct{ plainInner }

func (s *sessionInner) CallSession(_ context.Context, client string, seq uint64, entry string, _ []any) ([]any, error) {
	return []any{client, seq, entry}, s.err
}

// TestShimsForwardUnchanged: a shim must answer what its inner value answers,
// error included, and must have exactly the optional surfaces the inner
// value has — the node picks its serve path by type assertion.
func TestShimsForwardUnchanged(t *testing.T) {
	boom := errors.New("boom")
	tr := newTracer()

	if got, cs := shimCallable(nil, "x", &plainInner{}); cs != nil {
		t.Errorf("untraced: got a shim %T", got)
	}

	plain, cs := shimCallable(tr, "core.call", &plainInner{err: boom})
	if _, ok := plain.(asyncCallable); ok {
		t.Error("shim of a plain callable grew CallAsync")
	}
	if _, ok := plain.(sessionCallable); ok {
		t.Error("shim of a plain callable grew CallSession")
	}
	res, err := plain.CallCtx(context.Background(), "Write", 1, 42)
	if err != boom || len(res) != 2 || res[0] != "Write" || res[1] != 2 {
		t.Errorf("CallCtx forwarded as %v, %v", res, err)
	}
	if cs.served.Load() != 1 || cs.async.Load() != 0 {
		t.Errorf("served %d async %d", cs.served.Load(), cs.async.Load())
	}

	inner := &asyncInner{accept: true}
	inner.err = boom
	shim, cs := shimCallable(tr, "core.call", inner)
	ac, ok := shim.(asyncCallable)
	if !ok {
		t.Fatal("shim of an async callable lost CallAsync")
	}
	var got []any
	var gotErr error
	if !ac.CallAsync("Read", []any{1}, func(r []any, e error) { got, gotErr = r, e }) {
		t.Error("accepted CallAsync reported as declined")
	}
	if gotErr != boom || len(got) != 2 || got[0] != "async" {
		t.Errorf("CallAsync completion forwarded as %v, %v", got, gotErr)
	}
	inner.accept = false
	called := false
	if ac.CallAsync("Read", []any{1}, func([]any, error) { called = true }) || called {
		t.Error("declined CallAsync reported as accepted, or completed")
	}
	if cs.served.Load() != 1 || cs.async.Load() != 1 {
		t.Errorf("served %d async %d after one accepted and one declined call", cs.served.Load(), cs.async.Load())
	}

	sess, _ := shimCallable(tr, "replica.call", &sessionInner{plainInner{err: boom}})
	sc, ok := sess.(sessionCallable)
	if !ok {
		t.Fatal("shim of a session callable lost CallSession")
	}
	res, err = sc.CallSession(context.Background(), "c1", 9, "Put", []any{"k", strVal(5)})
	if err != boom || len(res) != 3 || res[0] != "c1" || res[1] != uint64(9) || res[2] != "Put" {
		t.Errorf("CallSession forwarded as %v, %v", res, err)
	}

	spans := tr.take()
	if len(spans) != 3 {
		t.Fatalf("%d spans recorded, want 3 (declined calls leave none)", len(spans))
	}
	if s := spans[0]; s.Name != "core.call" || s.ID != 42 || !s.Write {
		t.Errorf("Write span = %+v", s)
	}
	if s := spans[2]; s.Name != "replica.call" || s.ID != 5 || !s.Write {
		t.Errorf("Put span = %+v", s)
	}
}

type fakeJournal struct{ err error }

func (fakeJournal) RecordOutcome(string, uint64, []any, []any, error) uint64 { return 77 }
func (j fakeJournal) WaitDurable(uint64) error                               { return j.err }

type failingFile struct{ wal.File }

func (failingFile) Sync() error { return errors.New("disk gone") }

type failingFS struct{ wal.FS }

func (f failingFS) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	return failingFile{file}, err
}

func TestJournalAndFSShimsForward(t *testing.T) {
	boom := errors.New("boom")
	tr := newTracer()
	j := shimJournal(tr, fakeJournal{err: boom})
	if lsn := j.RecordOutcome("Write", 1, []any{3, 42}, nil, nil); lsn != 77 {
		t.Errorf("RecordOutcome forwarded lsn %d", lsn)
	}
	if err := j.WaitDurable(77); err != boom {
		t.Errorf("WaitDurable forwarded %v", err)
	}
	fs := shimFS(tr, failingFS{wal.NewFailFS()})
	f, err := fs.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err == nil || err.Error() != "disk gone" {
		t.Errorf("Sync forwarded %v", err)
	}
	names := []string{}
	for _, s := range tr.take() {
		names = append(names, s.Name)
	}
	if len(names) != 3 || names[0] != "wal.record" || names[1] != "wal.wait_durable" || names[2] != "wal.fsync" {
		t.Errorf("spans %v", names)
	}
	if shimJournal(nil, fakeJournal{}) != (fakeJournal{}) {
		t.Error("untraced journal is wrapped")
	}
}

func quickEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e.quick = true
	t.Cleanup(func() {
		if err := e.cleanup(); err != nil {
			t.Error(err)
		}
	})
	return e
}

// TestKeyLanesKeepSeqsDense hammers a handful of keys from many goroutines:
// each key's sequence numbers must come out dense and in order (which
// conformance.CheckKeyOrder and the owners' ledgers confirm) although the
// callers race for the lanes.
func TestKeyLanesKeepSeqsDense(t *testing.T) {
	e := quickEnv(t)
	sys, err := mirrorFabric(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newFabricDriver(sys, 1, satClients(), nil)
	if err != nil {
		sys.stop()
		t.Fatal(err)
	}
	defer d.close()
	const keys, perKey = 4, 50
	if err := fanOut(keys*perKey, func(_, k int) error { return d.append(int32(k % keys)) }); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		if lane := &d.lanes[k]; lane.next != perKey || len(lane.acks) != perKey {
			t.Errorf("key %d: next seq %d, %d acks, want %d", k, lane.next, len(lane.acks), perKey)
		}
	}
	checked, err := d.verify()
	if err != nil {
		t.Fatal(err)
	}
	if bad, first := d.violations(); bad != 0 || checked != keys {
		t.Errorf("%d violations (%s), %d keys audited", bad, first, checked)
	}
}

// TestOracleRule exercises the one rule the key-value oracle enforces.
func TestOracleRule(t *testing.T) {
	o := newKVOracle(4)
	a, _ := o.beginWrite(1)
	o.ackWrite(1, a)
	b, _ := o.beginWrite(1) // issued after a was acknowledged
	overlapped := o.beginRead(1)
	o.ackWrite(1, b)
	o.endRead(1, overlapped, a) // legal: the read began before b was acknowledged
	after := o.beginRead(1)
	o.endRead(1, after, b)
	if n := o.violations.Load(); n != 0 {
		t.Fatalf("legal history flagged: %s", *o.firstBad.Load())
	}
	o.endRead(1, after, a) // stale: a completed before b began, b before the read
	o.endRead(1, after, -2)
	o.endRead(2, 0, a) // a was never written to key 2
	if n := o.violations.Load(); n != 3 {
		t.Errorf("%d violations flagged, want 3", n)
	}
}

// TestSmokeEveryWorkload runs both passes of every workload against the
// in-process mirror with slices of 100 ms and less and requires every metric
// BENCHMARK.json names, with its unit, and a correct run.
func TestSmokeEveryWorkload(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json may leave a workload out (durable-rw: see README.md), but
	// may name none the benchmark does not have.
	for _, bw := range bf.Workloads {
		if _, err := findWorkload(bw.Name); err != nil {
			t.Error(err)
		}
	}
	if len(bf.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(bf.PerLayer), len(perLayerUnits))
	}
	load := map[string]loadSpec{}
	for _, w := range workloads {
		load[w.name] = loadSpec{Rate: 500, SLOp99us: 1e6, WakeOpenUs: 30, WakeClosedUs: 30}
	}
	for i := range workloads {
		w := &workloads[i]
		e := quickEnv(t)
		const seconds = 0.6
		check := func(rep *runReport, err error, want []struct{ Name, Unit string }) {
			t.Helper()
			if err != nil {
				t.Errorf("%s: %v", w.name, err)
				return
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s (trace=%v): %d of %d failed: %s", w.name, rep.Trace, rep.Failed, rep.Attempted, rep.Violation)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s (trace=%v): %d metrics printed, BENCHMARK.json names %d", w.name, rep.Trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace=%v): metric %s [%s] printed as %+v (present: %v)", w.name, rep.Trace, m.Name, m.Unit, got, ok)
				}
			}
		}
		rep, err := measure(w, e, load, 1, seconds)
		check(rep, err, bf.EndToEnd)
		rep, err = traced(w, e, load, 1, seconds)
		check(rep, err, bf.PerLayer)
	}
}
