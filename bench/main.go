// Command bench is this repository's benchmark: one run loads one workload —
// an in-process object, or real alpsd children over loopback TCP — and prints
// its end-to-end metrics (-trace 0) or its per-layer budget (-trace 1) after
// checking that what the system answered was correct. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (see BENCHMARK.json); with -selfcheck, the only one to check")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 0, "how long the run measures (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "0: measured pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		root      = flag.String("root", "", "checkout root (default: the working directory, or its parent when run inside bench/)")
		calibrate = flag.Bool("calibrate", false, "measure saturation of the remote workloads and print load.json")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of this many runs per workload and compare them against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	os.Exit(run(options{*workload, *seed, *seconds, *trace == 1, *root, *calibrate, *selfcheck}))
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	root      string
	calibrate bool
	selfcheck int
}

func findRoot(root string) (string, error) {
	candidates := []string{root}
	if root == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "bench", "load.json")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(c, "cmd", "alpsd", "main.go")); err != nil {
			continue
		}
		return c, nil
	}
	return "", fmt.Errorf("no checkout here: need bench/load.json and cmd/alpsd under %v", candidates)
}

func run(o options) (code int) {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root, err := findRoot(o.root)
	if err != nil {
		return fail(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return fail(err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(bf.RunSeconds)
	}
	if o.selfcheck > 0 {
		return selfCheck(root, bf, o.workload, o.selfcheck, o.seconds)
	}
	e, err := newEnv(root)
	if err != nil {
		return fail(err)
	}
	e.cleanupOnSignal()
	defer func() {
		// On a panic too: kill the children and remove their dirs, then let
		// the panic go on.
		if err := e.cleanup(); err != nil && code == 0 {
			code = fail(err)
		}
	}()
	if o.calibrate {
		if err := calibrateLoad(e, o.seed); err != nil {
			return fail(err)
		}
		return 0
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return fail(err)
	}
	load, err := readLoad(root)
	if err != nil {
		return fail(err)
	}
	pass := measure
	if o.trace {
		pass = traced
	}
	rep, err := pass(w, e, load, o.seed, o.seconds)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	// A child that died on its own, or a directory that will not go away,
	// fails the run even if every call was answered.
	if err := e.cleanup(); err != nil {
		rep.Failed++
		rep.Violation = err.Error()
	}
	rep.Host = host(root, w)
	rep.Correct = rep.Failed == 0
	if err := emit(e, rep); err != nil {
		return fail(err)
	}
	return 0
}

// emit prints the reader's summary, stores it under bench/out, and prints
// the contract's result object as the last line of standard output.
func emit(e *env, rep *runReport) error {
	summary, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(summary))
	kind := "measured"
	if rep.Trace {
		kind = "traced"
	}
	if err := os.WriteFile(filepath.Join(e.outDir, fmt.Sprintf("summary-%s-%s.json", rep.Workload, kind)), summary, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func firstLine(path, prefix string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, prefix) {
			if _, v, ok := strings.Cut(l, ":"); ok {
				return strings.TrimSpace(v)
			}
			return strings.TrimSpace(l)
		}
	}
	return "unknown"
}

func host(root string, w *workloadDef) hostInfo {
	h := hostInfo{
		CPU:        firstLine("/proc/cpuinfo", "model name"),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		ChildProcs: "none",
		Kernel:     firstLine("/proc/sys/kernel/osrelease", ""),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	h.Host, _ = os.Hostname()
	if w.children > 0 {
		h.ChildProcs = fmt.Sprintf("%d x default", w.children)
		if w.childProc > 0 {
			h.ChildProcs = fmt.Sprintf("%d x %d", w.children, w.childProc)
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil { // the driver's checkout is not a repository
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}
