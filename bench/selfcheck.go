package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check needs.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// oneRun executes this binary for one measured run and parses the contract
// line it prints last.
func oneRun(root, workload string, seed int, seconds float64) (metrics map[string]value, valid bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	cmd := exec.Command(self, "-root", root, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, false, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res struct {
		Correct bool             `json:"correct"`
		Metrics map[string]value `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, false, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, false, fmt.Errorf("%s seed %d: run was not correct", workload, seed)
	}
	var summary runReport
	b, err := os.ReadFile(filepath.Join(root, "bench", "out", "summary-"+workload+"-measured.json"))
	if err == nil {
		err = json.Unmarshal(b, &summary)
	}
	return res.Metrics, err == nil && summary.Valid, err
}

// selfCheck is the -selfcheck mode: two sets of n runs per workload (or of
// the one workload named) on the same tree — the second set over the same seeds in the opposite order — and
// a verdict per end-to-end metric: the spread inside each set (quartile
// distance over median, as the acceptance driver computes it) and the drift
// between the sets' medians must both stay within the metric's bound. A run
// the generator marked invalid fails the check too.
func selfCheck(root string, bf *benchmarkFile, only string, n int, seconds float64) int {
	bad := 0
	fmt.Printf("%-14s %-16s %12s %12s %12s %8s | %12s %8s | %7s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "median(2)", "spread", "drift", "bound")
	for _, w := range bf.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for set := 0; set < 2; set++ {
			for k := 0; k < n; k++ {
				seed := k + 1
				if set == 1 {
					seed = n - k
				}
				metrics, valid, err := oneRun(root, w.Name, seed, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !valid {
					fmt.Printf("%-14s seed %d: run marked invalid (generator too late)\n", w.Name, seed)
					bad++
				}
				for name, v := range metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		for _, m := range bf.EndToEnd {
			q1, med1, q3, sp1 := quartileSpread(sets[0][m.Name])
			_, med2, _, sp2 := quartileSpread(sets[1][m.Name])
			drift := ratio(med2-med1, med1) // > 0: the second set's median is higher
			if m.Better == "higher" {
				drift = -drift
			}
			verdict := ""
			// setup_s is gated on drift only, as in the acceptance driver.
			if drift > m.Bound || (m.Name != "setup_s" && (sp1 > m.Bound || sp2 > m.Bound)) {
				verdict = "  FAIL"
				bad++
			}
			fmt.Printf("%-14s %-16s %12.4g %12.4g %12.4g %7.1f%% | %12.4g %7.1f%% | %6.1f%% %5.0f%%%s\n",
				w.Name, m.Name, q1, med1, q3, 100*sp1, med2, 100*sp2, 100*drift, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("self-check FAILED: %d findings\n", bad)
		return 1
	}
	fmt.Println("self-check passed")
	return 0
}
