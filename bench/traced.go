package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	alps "repro"
	"repro/internal/fabric"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// perLayerUnits names every per-layer metric and its unit. A traced run
// prints all of them; one a workload does not exercise prints 0, which is
// itself a prediction the README states (no wal.* on remote-plain, no
// replica.* on fabric-append).
var perLayerUnits = map[string]string{
	"core.call_us": "us", "core.accept_wait_us": "us", "core.body_us": "us", "core.finish_wait_us": "us",
	"core.pending_depth": "count", "core.allocs_per_call": "count", "core.failed": "count", "core.shed": "count",
	"objects.rw_violations": "count", "objects.peak_readers": "count",
	"sched.goroutines_peak":    "count",
	"wire.encode_ns_per_frame": "ns", "wire.decode_ns_per_frame": "ns", "wire.allocs_per_frame": "count", "wire.bytes_per_call": "B",
	"rpc.call_us": "us", "rpc.transport_self_us": "us", "rpc.frames_per_flush": "ratio", "rpc.flushes_per_call": "ratio",
	"rpc.async_share": "ratio", "rpc.retries_per_call": "ratio", "rpc.dedup_hits": "count",
	"wal.record_us": "us", "wal.wait_durable_us": "us", "wal.fsync_us": "us",
	"wal.fsyncs_per_write": "ratio", "wal.bytes_per_record": "B", "wal.recover_records_per_s": "1/s",
	"replica.write_us": "us", "replica.read_us": "us", "replica.apply_us": "us",
	"replica.proposals_per_round": "ratio", "replica.entries_per_append": "ratio",
	"replica.reads_off_log_share": "ratio", "replica.read_retries": "count",
	"fabric.append_us": "us", "fabric.host_call_us": "us", "fabric.owner_ns": "ns",
	"fabric.dup_share": "ratio", "fabric.node_skew": "ratio",
	"gen.lat_p99_us": "us", "gen.late_p99_us": "us", "gen.inflight_peak": "count", "gen.build_s": "s", "gen.failed_share": "ratio",
	"trace.overhead_share": "ratio", "trace.e2e_ratio": "ratio", "trace.self_sum_ratio": "ratio",
}

// spanParter is a driver that can narrow itself to the span part's load: one
// writer and one reader in flight (one appender, for the fabric).
type spanParter interface{ spanPart(on bool) }

func (d *kvDriver) spanPart(on bool) {
	d.spanMode, d.nclients = on, satClients()
	if on {
		d.nclients = 2
	}
}

func (d *fabricDriver) spanPart(on bool) {
	d.nclients = satClients()
	if on {
		d.nclients = 1
	}
}

// lifecycle splits recorded call lifecycles (alps.WithTrace) into the three
// waits the paper's manager protocol has: for acceptance, in the body, and
// for the manager's finish. Calls of the entry named skip are left out.
func lifecycle(recs []*trace.Recorder, skip string) (acceptWait, body, finishWait []int64) {
	for _, rec := range recs {
		type marks struct{ arrived, accepted, started, ready, finished time.Time }
		calls := map[uint64]*marks{}
		for _, ev := range rec.Events() {
			if ev.Entry == skip {
				continue
			}
			m := calls[ev.CallID]
			if m == nil {
				m = &marks{}
				calls[ev.CallID] = m
			}
			switch ev.Kind {
			case trace.Arrived:
				m.arrived = ev.Time
			case trace.Accepted:
				m.accepted = ev.Time
			case trace.Started:
				m.started = ev.Time
			case trace.Ready:
				m.ready = ev.Time
			case trace.Finished:
				m.finished = ev.Time
			}
		}
		for _, m := range calls {
			if m.arrived.IsZero() || m.started.IsZero() || m.finished.IsZero() {
				continue // cut off by the start or the end of the recording
			}
			granted := m.accepted
			if granted.IsZero() {
				// An entry no manager intercepts starts without an accept and
				// finishes without an await.
				granted, m.ready = m.started, m.finished
			}
			acceptWait = append(acceptWait, int64(granted.Sub(m.arrived)))
			body = append(body, int64(m.ready.Sub(m.started)))
			finishWait = append(finishWait, int64(m.finished.Sub(m.ready)))
		}
	}
	return acceptWait, body, finishWait
}

// keepShort empties the recorders every 10 ms until the instant given, so
// that what they hold afterwards is only the phase's tail. An alps.WithTrace
// recorder cannot be detached or bounded cheaply (its limit copies the whole
// buffer on every event), and left alone it grows by megabytes a second —
// at which point the traced run would be timing the recorder. The returned
// function stops the emptying early.
func keepShort(recs []*trace.Recorder, until time.Time) (stop func()) {
	quit := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case now := <-tick.C:
				if now.After(until) {
					return
				}
				for _, r := range recs {
					r.Reset()
				}
			}
		}
	}()
	return func() { close(quit); done.Wait() }
}

// sampler polls gauges every 10 ms while a phase runs.
type sampler struct {
	stop       chan struct{}
	done       sync.WaitGroup
	pendingSum float64
	samples    int
	goroutines int
	// failed and shed are the entries' counters as last seen while the phase
	// ran: closing an object fails whatever is still pending, and those are
	// the benchmark's doing, not the object's.
	failed, shed uint64
}

func startSampler(pending func() int, objs []*alps.Object) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.goroutines = max(s.goroutines, runtime.NumGoroutine())
				p := pending()
				_, failed, shed := entryTotals(objs)
				// Read first, check after: Close marks the object closed
				// before it fails the pending calls, so counters that include
				// the sweep are always seen as such and dropped.
				if closing(objs) {
					continue
				}
				s.pendingSum += float64(p)
				s.samples++
				s.failed, s.shed = failed, shed
			}
		}
	}()
	return s
}

func (s *sampler) finish() (meanPending, goroutinesPeak float64) {
	close(s.stop)
	s.done.Wait()
	return ratio(s.pendingSum, float64(s.samples)), float64(s.goroutines)
}

func closing(objs []*alps.Object) bool {
	for _, o := range objs {
		select {
		case <-o.Done():
			return true
		default:
		}
	}
	return false
}

// entryTotals sums the public per-entry counters of the given objects.
func entryTotals(objs []*alps.Object) (pending int, failed, shed uint64) {
	for _, o := range objs {
		for _, name := range o.Entries() {
			if st, ok := o.EntryStats(name); ok {
				pending += st.Pending
				failed += st.Failed
				shed += st.Shed
			}
		}
	}
	return pending, failed, shed
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// wireCosts times wire.AppendFrame and wire.Decoder.Decode over the request
// and response frames of the workload's own calls, in their own mix.
func wireCosts(frames []wire.Frame) (encNs, decNs, allocs, bytesPerCall float64) {
	if len(frames) == 0 {
		return 0, 0, 0, 0
	}
	const rounds = 2000
	table := wire.DefaultTable.Snapshot()
	var buf []byte
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		buf = buf[:0]
		for i := range frames {
			buf, _ = wire.AppendFrame(buf, &frames[i], table) // these frames hold only basic types
		}
	}
	encNs = float64(time.Since(t0)) / float64(rounds*len(frames))
	bytesPerCall = float64(len(buf)) / float64(len(frames)) * 2 // a call is a request and a response

	stream := bytes.Repeat(buf, rounds)
	dec := wire.NewDecoder(bufio.NewReaderSize(bytes.NewReader(stream), 64<<10), table)
	var f wire.Frame
	t0 = time.Now()
	n := 0
	for dec.Decode(&f) == nil {
		n++
	}
	decNs = float64(time.Since(t0)) / float64(max(n, 1))
	runtime.ReadMemStats(&m1)
	allocs = float64(m1.Mallocs-m0.Mallocs) / float64(rounds*len(frames)+n) * 2 // per frame, encode + decode
	return encNs, decNs, allocs, bytesPerCall
}

func kvFrames(kind kvKind) []wire.Frame {
	req := func(entry string, params ...any) wire.Frame {
		return wire.Frame{Kind: wire.KindRequest, ID: 123456, Object: "Database", Entry: entry, Params: params, Client: "0123456789abcdef", Seq: 123456}
	}
	resp := func(results ...any) wire.Frame {
		return wire.Frame{Kind: wire.KindResponse, ID: 123456, Results: results}
	}
	var rd, wr [2]wire.Frame
	if kind == kvDatabase {
		rd = [2]wire.Frame{req("Read", 4711), resp(123456, true)}
		wr = [2]wire.Frame{req("Write", 4711, 123456), resp()}
	} else {
		rd = [2]wire.Frame{req("Get", "key-04711"), resp(strVal(123456))}
		wr = [2]wire.Frame{req("Put", "key-04711", strVal(123456)), resp(10000)}
		for i := range rd {
			rd[i].Object, wr[i].Object = "Registry", "Registry"
		}
	}
	// Four reads to one write, the workload's 80/20.
	return []wire.Frame{rd[0], rd[1], rd[0], rd[1], rd[0], rd[1], rd[0], rd[1], wr[0], wr[1]}
}

func fabricFrames() []wire.Frame {
	return []wire.Frame{
		{Kind: wire.KindRequest, ID: 123456, Object: "fabric", Entry: "Append", Client: "bench-1-0#0123456789ab", Seq: 123456,
			Params: []any{"key-0042", "bench-1-0", uint64(17), make([]byte, fabricPayload)}},
		{Kind: wire.KindResponse, ID: 123456, Results: []any{"ok", "n1", uint64(0), uint64(18), ""}},
	}
}

// ownerNs times fabric.Ring.Owner over the workload's keys.
func ownerNs(spec string, names []string) float64 {
	ring, err := fabric.ParseSpec(spec)
	if err != nil {
		return 0
	}
	const rounds = 50
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range names {
			ring.Owner(k)
		}
	}
	return float64(time.Since(t0)) / float64(rounds*len(names))
}

// fsyncProbe times wal.File.Sync after a record-sized write in dir. The
// fabric host opens its journal itself and takes no wal.FS, so its syncs
// cannot be interposed on; this measures the same call on the same
// directory, beside the run rather than inside it.
func fsyncProbe(dir string) float64 {
	f, err := wal.OSFS{}.Append(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0
	}
	defer f.Close()
	rec := make([]byte, 256) // about one journaled append
	var ns []int64
	for i := 0; i < 64; i++ {
		if _, err := f.Write(rec); err != nil {
			return 0
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0
		}
		ns = append(ns, int64(time.Since(t0)))
	}
	return p50us(ns)
}

// tracedRun is the state of one traced pass.
type tracedRun struct {
	w       *workloadDef
	e       *env
	seed    uint64
	seconds float64
	part    time.Duration // length of each of the span part's phases
	rep     *runReport
	m       map[string]float64 // the per-layer metrics, all present from the start
}

func (t *tracedRun) setUp(mirror bool, tr *tracer) (instance, error) {
	return t.w.setUp(setUpArgs{env: t.e, seed: t.seed, clients: satClients(), mirror: mirror, tr: tr})
}

// spanDrive loads inst the span part's way: one writer and one reader.
func (t *tracedRun) spanDrive(inst instance) phaseResult {
	if sp, ok := inst.(spanParter); ok {
		sp.spanPart(true)
		defer sp.spanPart(false)
	}
	var release func()
	if !t.w.remote {
		release = inst.release
	}
	res := closedLoop(inst, t.w.closed(t.part, 0, release))
	t.rep.account(res)
	return res
}

// traced is the traced pass. It drives the real system briefly (to have
// something to hold the mirror against), then an untraced and a traced
// mirror with one writer and one reader in flight — the span part — and
// finally the traced mirror at the saturation client count while reading the
// layers' public counters — the count part. A local workload is its own
// mirror and has no count part: its gauges are read during the span part.
func traced(w *workloadDef, e *env, load map[string]loadSpec, seed uint64, seconds float64) (*runReport, error) {
	t := &tracedRun{w: w, e: e, seed: seed, seconds: seconds,
		part: time.Duration(seconds * 0.15 * float64(time.Second)),
		rep:  &runReport{Workload: w.name, Seed: seed, Trace: true, Valid: true, Metrics: map[string]value{}},
		m:    map[string]float64{}}
	for name := range perLayerUnits {
		t.m[name] = 0
	}
	m := t.m

	realP50 := 0.0
	if w.remote {
		var err error
		if realP50, err = t.realSystem(load); err != nil {
			return nil, err
		}
	}

	off, err := t.setUp(w.remote, nil)
	if err != nil {
		return nil, fmt.Errorf("mirror set-up: %w", err)
	}
	offRes := t.spanDrive(off)
	t.rep.finish(off)
	off.close()

	tr := newTracer()
	on, err := t.setUp(w.remote, tr)
	if err != nil {
		return nil, fmt.Errorf("traced mirror set-up: %w", err)
	}
	defer on.close() // harmless after the explicit close below
	var recs []*trace.Recorder
	var objs []*alps.Object
	pending := func() int { p, _, _ := entryTotals(objs); return p }
	skipEntry := ""
	switch d := on.(type) {
	case *kvDriver:
		recs, objs = d.sys.mirror.recs, d.sys.mirror.objs
	case *bufferDriver:
		recs, objs = []*trace.Recorder{d.rec}, []*alps.Object{d.buf.Object()}
	case *schedDriver:
		recs, objs = []*trace.Recorder{d.rec}, []*alps.Object{d.s.obj}
		pending = d.pending
		skipEntry = "Release" // as in lat_p50_us: the waits reported are the Req calls'
	}
	tr.take() // set-up traffic is not part of the trace
	var smp *sampler
	if !w.remote {
		smp = startSampler(pending, objs)
	}
	// The lifecycle figures come from the span part's last sixth.
	stopReset := keepShort(recs, time.Now().Add(t.part*5/6))
	onRes := t.spanDrive(on)
	stopReset()
	spans := tr.take()
	acceptWait, body, finishWait := lifecycle(recs, skipEntry)
	m["core.accept_wait_us"], m["core.body_us"], m["core.finish_wait_us"] = p50us(acceptWait), p50us(body), p50us(finishWait)
	m["trace.overhead_share"] = ratio(onRes.P50us.Value, offRes.P50us.Value) - 1

	if !w.remote {
		m["core.pending_depth"], m["sched.goroutines_peak"] = smp.finish()
		m["core.failed"], m["core.shed"] = float64(smp.failed), float64(smp.shed)
		m["core.call_us"], m["core.allocs_per_call"] = offRes.P50us.Value, offRes.Allocs
		m["gen.lat_p99_us"] = offRes.P99us.Value
		m["trace.e2e_ratio"], m["trace.self_sum_ratio"] = 1, 1 // it is its own mirror, and one span per request leaves nothing to sum
		t.rep.finish(on)
	} else {
		m["trace.e2e_ratio"] = ratio(offRes.P50us.Value, realP50)
		t.spanMetrics(decompose(spans, w.rootSpan))
		if err := writeTrace(filepath.Join(e.outDir, "trace-"+w.name+".json"), spans); err != nil {
			return nil, err
		}
		t.countPart(on, recs, objs, pending)
		t.rep.finish(on)
		on.close()
		if err := t.afterClose(on); err != nil {
			return nil, err
		}
	}
	m["gen.failed_share"] = ratio(float64(t.rep.Failed), float64(t.rep.Attempted))
	for name, v := range m {
		t.rep.Metrics[name] = value{v, perLayerUnits[name]}
	}
	return t.rep, nil
}

// realSystem loads the real children, black-box, the span part's way and —
// to report the generator's own lateness — briefly under the open loop. It
// returns the median call latency of the former.
func (t *tracedRun) realSystem(load map[string]loadSpec) (float64, error) {
	spec, ok := load[t.w.name]
	if !ok || spec.Rate <= 0 {
		return 0, fmt.Errorf("bench/load.json has no frozen rate for %s: run -calibrate and paste its output there", t.w.name)
	}
	t.rep.Load = &spec
	inst, err := t.setUp(false, nil)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	span := t.spanDrive(inst)
	open := openLoop(inst.(scheduled), spec.Rate, t.part, 0)
	t.rep.account(open)
	t.rep.finish(inst)
	t.m["gen.lat_p99_us"], t.m["gen.late_p99_us"] = open.P99us.Value, open.LateP99us.Value
	t.m["gen.inflight_peak"], t.m["gen.build_s"] = float64(open.InflightPeak), t.e.buildS
	t.rep.Open = &open
	return span.P50us.Value, nil
}

// spanMetrics turns the span part's decomposition into per-layer times.
func (t *tracedRun) spanMetrics(d decomposition) {
	m := t.m
	m["core.call_us"] = d.p50("core.call", "")
	m["wal.record_us"], m["wal.wait_durable_us"], m["wal.fsync_us"] = d.p50("wal.record", ":w"), d.p50("wal.wait_durable", ":w"), d.p50("wal.fsync", ":w")
	m["replica.write_us"], m["replica.read_us"] = d.p50("replica.call", ":w"), d.p50("replica.call", ":r")
	m["fabric.host_call_us"] = d.p50("fabric.host_call", ":w")
	switch t.w.rootSpan {
	case "rpc.call":
		m["rpc.call_us"] = d.p50("rpc.call", "")
		var self []int64
		for _, r := range d.roots {
			self = append(self, r.self["rpc"])
		}
		m["rpc.transport_self_us"] = p50us(self)
	case "fabric.append":
		m["fabric.append_us"] = d.p50("fabric.append", ":w")
	}
	if t.w.name == "replicated-rw" {
		// There the object handed to replica.New is the one core.call wraps.
		m["replica.apply_us"] = d.p50("core.call", ":w")
	}
	// The class whose medians add up worse speaks for the decomposition.
	rr, rw := d.sumRatio(false), d.sumRatio(true)
	m["trace.self_sum_ratio"] = rr
	if rr == 0 || (rw != 0 && math.Abs(rw-1) > math.Abs(rr-1)) {
		m["trace.self_sum_ratio"] = rw
	}
}

// countPart drives the traced mirror at the saturation client count and
// reads the layers' public counters before and after.
func (t *tracedRun) countPart(on instance, recs []*trace.Recorder, objs []*alps.Object, pending func() int) {
	m := t.m
	before := countersOf(on)
	_, failed0, shed0 := entryTotals(objs)
	stopReset := keepShort(recs, time.Now().Add(time.Hour))
	smp := startSampler(pending, objs)
	res := closedLoop(on, t.w.closed(time.Duration(t.seconds*0.2*float64(time.Second)), 0, nil))
	m["core.pending_depth"], m["sched.goroutines_peak"] = smp.finish()
	stopReset()
	t.rep.account(res)
	after := countersOf(on)
	_, failed1, shed1 := entryTotals(objs)
	delta := func(k string) float64 { return after[k] - before[k] }
	calls := float64(res.Attempted)
	m["core.failed"], m["core.shed"] = float64(failed1-failed0), float64(shed1-shed0)
	m["rpc.frames_per_flush"] = ratio(delta("frames"), delta("flushes"))
	m["rpc.flushes_per_call"] = ratio(delta("flushes"), calls)
	m["rpc.async_share"] = ratio(delta("async"), delta("served"))
	m["rpc.retries_per_call"] = ratio(delta("retries"), calls)
	m["rpc.dedup_hits"] = delta("dedup")
	m["wal.fsyncs_per_write"] = ratio(delta("fsyncs"), delta("writes"))
	m["wal.bytes_per_record"] = ratio(delta("wal_bytes"), delta("wal_records"))
	m["replica.proposals_per_round"] = ratio(delta("proposals"), delta("rounds"))
	m["replica.reads_off_log_share"] = ratio(delta("repl_reads"), calls)
	m["replica.read_retries"] = delta("read_retries")
	m["replica.entries_per_append"] = after["entries_per_append"]

	var frames []wire.Frame
	switch d := on.(type) {
	case *kvDriver:
		if db := d.sys.mirror.db; db != nil {
			peak, viol := db.Stats()
			m["objects.peak_readers"], m["objects.rw_violations"] = float64(peak), float64(viol)
		}
		frames = kvFrames(d.sys.kind)
	case *fabricDriver:
		m["fabric.dup_share"], m["fabric.node_skew"] = d.ackStats()
		m["fabric.owner_ns"] = ownerNs(d.sys.spec, d.names)
		frames = fabricFrames()
	}
	m["wire.encode_ns_per_frame"], m["wire.decode_ns_per_frame"], m["wire.allocs_per_frame"], m["wire.bytes_per_call"] = wireCosts(frames)
}

// afterClose takes the two timings that need the mirror's directories to
// themselves: recovery of what the count part left on disk, which is what a
// restart would read, and the fabric's fsync probe.
func (t *tracedRun) afterClose(on instance) (err error) {
	switch d := on.(type) {
	case *kvDriver:
		if t.w.name == "durable-rw" {
			if t.m["wal.recover_records_per_s"], err = recoverRate(d.sys.mirror.dirs[0]); err != nil {
				return fmt.Errorf("recovery timing: %w", err)
			}
		}
	case *fabricDriver:
		t.m["wal.fsync_us"] = fsyncProbe(d.sys.dirs[0])
	}
	return nil
}

// countersOf reads the public counters of a mirror: the links' rpc.Metrics
// on both sides, the stores' wal.Metrics and the shims' serve counts.
func countersOf(inst instance) map[string]float64 {
	c := map[string]float64{}
	addRPC := func(ms ...*rpc.Metrics) {
		batchSum, batchN := 0.0, 0.0
		for _, m := range ms {
			c["frames"] += float64(m.FramesSent.Value())
			c["flushes"] += float64(m.Flushes.Value())
			c["retries"] += float64(m.Retries.Value())
			c["dedup"] += float64(m.DedupHits.Value())
			c["proposals"] += float64(m.ReplProposals.Value())
			c["rounds"] += float64(m.ReplRounds.Value())
			c["repl_reads"] += float64(m.ReplReads.Value())
			c["read_retries"] += float64(m.ReplReadRetries.Value())
			n := float64(m.ReplBatch.Count())
			batchSum, batchN = batchSum+m.ReplBatch.Mean()*n, batchN+n
		}
		c["entries_per_append"] = ratio(batchSum, batchN) // since boot: SizeHist keeps no window
	}
	var shims []*callShim
	switch d := inst.(type) {
	case *kvDriver:
		mir := d.sys.mirror
		addRPC(append(mir.nms, d.cm)...)
		c["fsyncs"] = float64(mir.wm.Fsyncs.Value())
		c["wal_bytes"] = float64(mir.wm.Bytes.Value())
		c["wal_records"] = float64(mir.wm.Records.Value())
		c["writes"] = float64(d.or.writes.Load())
		shims = mir.served
	case *fabricDriver:
		addRPC(d.sys.nms...)
		shims = d.sys.served
	}
	for _, s := range shims {
		if s != nil {
			c["served"] += float64(s.served.Load())
			c["async"] += float64(s.async.Load())
		}
	}
	return c
}
