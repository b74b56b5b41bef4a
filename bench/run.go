package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// instance is one set-up system together with the driver that loads it.
type instance interface {
	driver
	// verify runs the end-of-run checks and returns how many it made.
	verify() (checked int64, err error)
	// violations reports oracle violations so far and the first one's text.
	violations() (int64, string)
	// release unblocks callers parked inside the system once a phase is over.
	release()
	close()
}

// setUpArgs selects what setUp builds.
type setUpArgs struct {
	env     *env
	seed    uint64
	clients int     // closed-loop client count (ignored by the local workloads)
	mirror  bool    // remote workloads: host the objects in this process instead of in alpsd children
	tr      *tracer // non-nil: interpose the shims (mirror and local only)
}

// workloadDef is one row of the workload table. The reasons each exists are
// in BENCHMARK.json and README.md.
type workloadDef struct {
	name      string
	remote    bool // open-loop phase + closed-loop phase against children; false: closed loop in process
	children  int  // alpsd processes
	childProc int  // GOMAXPROCS given to each child; 0 = its default
	// setupReps is how many times a run sets the system up; setup_s is the
	// median. Booting children takes long enough for three to do.
	setupReps   int
	sampleEvery int    // closed loop: one call in this many is timed
	readsOnly   bool   // see closedOpts.readsOnly
	rootSpan    string // the client-side span a traced request hangs under
	setUp       func(a setUpArgs) (instance, error)
}

// preloader is a remote workload's driver: set-up ends by writing its keys.
type preloader interface {
	instance
	preload(keys int) error
}

// remoteSetUp makes a remote workload's setUp from the three things that
// differ: how its children start, how its mirror is hosted, and the driver
// over either. The mirror stands in when asked for and in the tests.
func remoteSetUp[S any](start func(*env) (S, error), mirror func(*env, *tracer) (S, error),
	drive func(sys S, seed uint64, clients int, tr *tracer) (preloader, error), keys int) func(setUpArgs) (instance, error) {
	return func(a setUpArgs) (instance, error) {
		var sys S
		var err error
		if a.mirror || a.env.quick {
			sys, err = mirror(a.env, a.tr)
		} else {
			sys, err = start(a.env)
		}
		if err != nil {
			return nil, err
		}
		d, err := drive(sys, a.seed, a.clients, a.tr)
		if err != nil {
			return nil, err
		}
		if err := d.preload(a.env.preloadKeys(keys)); err != nil {
			d.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		return d, nil
	}
}

func kvSetUp(start func(*env) (*kvSystem, error), mirror func(*env, *tracer) (*kvSystem, error)) func(setUpArgs) (instance, error) {
	return remoteSetUp(start, mirror, func(sys *kvSystem, seed uint64, clients int, tr *tracer) (preloader, error) {
		return newKVDriver(sys, seed, clients, tr)
	}, kvKeys)
}

// preloadKeys is how many of a workload's keys set-up writes: all of them,
// but for the tests' quick setting.
func (e *env) preloadKeys(all int) int {
	if e.quick {
		return 256
	}
	return all
}

// localPreload is how many deposit/remove (or grant/return) pairs a local
// workload's set-up runs: as many as the remote workloads preload keys.
const localPreload = 10000

var workloads = []workloadDef{
	{
		name: "local-shallow", setupReps: 21, sampleEvery: 7, rootSpan: "core.call",
		setUp: func(a setUpArgs) (instance, error) {
			d, err := newBufferDriver(a.seed, a.tr != nil)
			if err != nil {
				return nil, err
			}
			// The local counterpart of preloading keys: a fixed amount of the
			// workload's own traffic, so that set-up time is the object's work
			// and not the jitter of starting one goroutine.
			for i := 0; i < a.env.preloadKeys(localPreload); i++ {
				if err := d.buf.Deposit(int64(-1)); err != nil {
					return nil, err
				}
				if _, err := d.buf.Remove(); err != nil {
					return nil, err
				}
			}
			return d, nil
		},
	},
	{
		// An odd sampling period, so that a caller alternating Req and Release
		// has both timed.
		name: "local-deep", setupReps: 11, sampleEvery: 7, readsOnly: true, rootSpan: "core.call",
		setUp: func(a setUpArgs) (instance, error) {
			d, err := newSchedDriver(a.seed, a.tr != nil)
			if err != nil {
				return nil, err
			}
			// As above: a fixed number of grants and returns, every class in turn.
			for i := 0; i < a.env.preloadKeys(localPreload); i++ {
				c := i % schedClasses
				if _, err := d.s.obj.Call(reqName(c)); err != nil {
					return nil, err
				}
				if _, err := d.s.obj.Call("Release", schedNeed(c)); err != nil {
					return nil, err
				}
			}
			return d, nil
		},
	},
	{
		name: "remote-plain", remote: true, children: 1, setupReps: 3, sampleEvery: 1, rootSpan: "rpc.call",
		setUp: kvSetUp(
			func(e *env) (*kvSystem, error) { return startDatabase(e, false) },
			func(e *env, tr *tracer) (*kvSystem, error) { return mirrorDatabase(e, false, tr) }),
	},
	{
		name: "durable-rw", remote: true, children: 1, setupReps: 3, sampleEvery: 1, rootSpan: "rpc.call",
		setUp: kvSetUp(
			func(e *env) (*kvSystem, error) { return startDatabase(e, true) },
			func(e *env, tr *tracer) (*kvSystem, error) { return mirrorDatabase(e, true, tr) }),
	},
	{
		name: "replicated-rw", remote: true, children: 3, childProc: memberProcs, setupReps: 3, sampleEvery: 1, rootSpan: "rpc.call",
		setUp: kvSetUp(startRegistry, mirrorRegistryGroup),
	},
	{
		name: "fabric-append", remote: true, children: 3, childProc: memberProcs, setupReps: 3, sampleEvery: 1, rootSpan: "fabric.append",
		setUp: remoteSetUp(startFabric, mirrorFabric, func(sys *fabricSystem, seed uint64, clients int, tr *tracer) (preloader, error) {
			return newFabricDriver(sys, seed, clients, tr)
		}, fabricKeys),
	},
}

// closed shapes a closed-loop phase of w. wakeRef is positive for a phase
// reported scaled (the measured pass against children), 0 for one reported
// raw.
func (w *workloadDef) closed(phase time.Duration, wakeRef float64, release func()) closedOpts {
	return closedOpts{phase: phase, sampleEvery: w.sampleEvery, readsOnly: w.readsOnly, wakeRef: wakeRef, release: release}
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// satClients is the closed-loop (saturation) client count of the remote
// workloads: enough in flight per processor for every batching mechanism in
// the stack to have something to batch.
func satClients() int { return 8 * runtime.GOMAXPROCS(0) }

// loadSpec is a remote workload's frozen load: the open-loop rate, the
// latency limit on p99, and the wake-up times its timings are scaled to (see
// sliceStat) — how late the open loop's dispatcher and the closed loop's
// probe woke at calibration, on a quiet box. All are constants in load.json,
// printed once by -calibrate and pasted there; a run never derives them.
type loadSpec struct {
	Rate         float64 `json:"rate"`           // calls/s, a tenth of saturation
	SLOp99us     float64 `json:"slo_p99_us"`     // 3x the calibrated p99
	WakeOpenUs   float64 `json:"wake_open_us"`   // dispatcher's median lateness at that rate
	WakeClosedUs float64 `json:"wake_closed_us"` // probe's median lateness at saturation
}

func (l loadSpec) ok() bool {
	return l.Rate > 0 && l.SLOp99us > 0 && l.WakeOpenUs > 0 && l.WakeClosedUs > 0
}

func readLoad(root string) (map[string]loadSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "bench", "load.json"))
	if err != nil {
		return nil, err
	}
	var m map[string]loadSpec
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("bench/load.json: %w", err)
	}
	return m, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is everything one run found. Metrics is what the contract's
// last line carries; the rest is for the reader.
type runReport struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Host      hostInfo         `json:"host"`
	Load      *loadSpec        `json:"load,omitempty"`
	Setups    []float64        `json:"setup_s_each,omitempty"`
	Open      *phaseResult     `json:"open_loop,omitempty"`
	Closed    *phaseResult     `json:"closed_loop,omitempty"`
	SLOMet    *bool            `json:"slo_met,omitempty"`
	Valid     bool             `json:"valid"` // false: the generator ran too late for its latencies to be the system's
	Checked   int64            `json:"verify_checks"`
	Violation string           `json:"first_violation,omitempty"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Correct   bool             `json:"correct"`
	Metrics   map[string]value `json:"metrics"`
	Claim     *string          `json:"claim"` // this benchmark defines the baseline; it claims nothing
}

// account adds a phase's calls and failures to the run's.
func (r *runReport) account(res phaseResult) {
	r.Attempted += res.Attempted
	r.Failed += res.Failed + res.Late
}

// finish runs an instance's end-of-run checks and folds in what its oracle
// saw; once per instance, before it is closed.
func (r *runReport) finish(inst instance) {
	checked, err := inst.verify()
	if err != nil {
		r.Failed++
		r.Violation = "verify: " + err.Error()
	}
	r.Checked, r.Attempted = r.Checked+checked, r.Attempted+checked
	bad, first := inst.violations()
	r.Failed += bad
	if bad > 0 && r.Violation == "" {
		r.Violation = first
	}
}

// measure is the measured pass: set the system up (several times, for a
// steady setup_s), load it with tracing off, check its outputs.
func measure(w *workloadDef, e *env, load map[string]loadSpec, seed uint64, seconds float64) (*runReport, error) {
	rep := &runReport{Workload: w.name, Seed: seed, Valid: true, Metrics: map[string]value{}}
	var spec loadSpec
	if w.remote {
		var ok bool
		if spec, ok = load[w.name]; !ok || !spec.ok() {
			return nil, fmt.Errorf("bench/load.json has no frozen rate, slo_p99_us, wake_open_us and wake_closed_us for %s: run -calibrate and paste its output there", w.name)
		}
		rep.Load = &spec
		if !e.quick {
			if err := e.build(); err != nil { // not part of set-up time
				return nil, err
			}
		}
	}
	reps := w.setupReps
	if e.quick {
		reps = 1
	}

	var inst instance
	for k := 0; k < reps; k++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setUp(setUpArgs{env: e, seed: seed, clients: satClients()}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.Setups = append(rep.Setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	var latency phaseResult
	if w.remote {
		phase := time.Duration(seconds / 2 * float64(time.Second))
		open := openLoop(inst.(scheduled), spec.Rate, phase, spec.WakeOpenUs)
		closed := closedLoop(inst, w.closed(phase, spec.WakeClosedUs, nil))
		rep.Open, rep.Closed, latency = &open, &closed, open
		met := open.P99us.Value <= spec.SLOp99us && open.Failed == 0
		rep.SLOMet = &met
		// Lateness is inside every latency (calls are timed from when they
		// were due), but when the dispatcher's own tail is most of the
		// system's, the run is measuring the generator.
		rep.Valid = open.LateP99us.Value <= open.P99us.Value/2
		rep.account(open)
	} else {
		closed := closedLoop(inst, w.closed(time.Duration(seconds*float64(time.Second)), 0, inst.release))
		rep.Closed, latency = &closed, closed
	}
	rep.account(*rep.Closed)
	rep.finish(inst)

	rep.Metrics["setup_s"] = value{median(rep.Setups), "s"}
	rep.Metrics["sat_calls_per_s"] = value{rep.Closed.CallsPerS.Value, "calls/s"}
	rep.Metrics["lat_p50_us"] = value{latency.P50us.Value, "us"}
	rep.Metrics["write_p50_us"] = value{latency.WriteP50.Value, "us"}
	rep.Metrics["allocs_per_call"] = value{rep.Closed.Allocs, "count"}
	return rep, nil
}

// hostInfo records what the numbers were measured on.
type hostInfo struct {
	Host       string `json:"host"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs_generator"`
	ChildProcs string `json:"gomaxprocs_children"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}
