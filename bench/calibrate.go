package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// round2 rounds to two significant digits: a frozen constant should not
// pretend to more precision than one calibration run has.
func round2(v float64) float64 {
	if v <= 0 {
		return 0
	}
	mag := math.Pow(10, math.Floor(math.Log10(v))-1)
	return math.Round(v/mag) * mag
}

// loadShare is the open-loop rate as a share of closed-loop saturation. On a
// box whose two processors the generator shares with the daemons, the tail at
// half of saturation is the kernel scheduler's: p99 moved by a factor of two
// between one second and the next. At a tenth it repeats within a few
// percent, and a run must repeat before it can gate anything.
const loadShare = 0.10

// minRate keeps a slow workload's open loop fast enough for a slice of about
// a second to have a dozen samples beyond its p99.
const minRate = 1500

// calibrateLoad is the one-off -calibrate mode: for every remote workload it
// measures closed-loop saturation, takes loadShare of it (at least minRate)
// as the open-loop rate, runs the open loop at that rate and takes three times its p99 as the
// latency limit and both phases' median wake-up times as the references the
// timings are scaled to. Calibrate on a quiet box. It prints the load.json to paste; nothing reads the result
// at run time.
func calibrateLoad(e *env, seed uint64) error {
	out := map[string]loadSpec{}
	for i := range workloads {
		w := &workloads[i]
		if !w.remote {
			continue
		}
		inst, err := w.setUp(setUpArgs{env: e, seed: seed, clients: satClients()})
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		const phase = 3 * time.Second
		// Scaled to a reference of 1 µs the figures are off by a constant, but
		// the wake-up times beside them are as measured, and the raw slices
		// give the rest.
		sat := closedLoop(inst, w.closed(phase, 1, nil))
		satRate := statOf(sat.CallsPerS.Raw, true).Value
		rate := math.Max(round2(satRate*loadShare), minRate)
		open := openLoop(inst.(scheduled), rate, phase, 1)
		inst.close()
		out[w.name] = loadSpec{Rate: rate, SLOp99us: round2(3 * open.P99us.Value),
			WakeOpenUs: round2(open.WakeP50us.Median), WakeClosedUs: round2(sat.WakeP50us.Median)}
		fmt.Fprintf(os.Stderr, "%s: saturation %.0f calls/s; at %.0f calls/s p50 %.0f us, p99 %.0f us, generator late p99 %.0f us\n",
			w.name, satRate, rate, statOf(open.P50us.Raw, false).Value, open.P99us.Value, open.LateP99us.Value)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
