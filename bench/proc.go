package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is one benchmark process's footprint on the machine: where the repo
// is, the scratch directory every data dir lives under, the alpsd binary and
// the children started from it. Everything it creates is inside the
// checkout and is gone again when cleanup returns.
type env struct {
	root   string // checkout root: holds cmd/alpsd and bench/
	outDir string // bench/out: traces and summaries, kept
	runDir string // bench/out/run-<pid>: data dirs and logs, removed at exit
	alpsd  string
	buildS float64
	// quick is the tests' setting: no children (the in-process mirror stands
	// in for them), one set-up per run and a token preload, so that every
	// workload can be smoke-tested inside go test's time.
	quick bool

	mu       sync.Mutex
	children []*child
	dirs     int
}

func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "bench", "out")}
	sweepStaleRuns(e.outDir)
	e.runDir = filepath.Join(e.outDir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// sweepStaleRuns removes run directories whose process is gone: a generator
// that was SIGKILLed could not remove its own.
func sweepStaleRuns(outDir string) {
	runs, _ := filepath.Glob(filepath.Join(outDir, "run-*"))
	for _, dir := range runs {
		pid, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(dir), "run-"))
		if err != nil {
			continue
		}
		if err := syscall.Kill(pid, 0); errors.Is(err, syscall.ESRCH) {
			_ = os.RemoveAll(dir) // best effort: a dir that stays is swept next time
		}
	}
}

// build compiles the real cmd/alpsd from the checkout, once per process. The
// time is reported as gen.build_s and is not part of setup_s.
func (e *env) build() error {
	if e.alpsd != "" {
		return nil
	}
	binDir := filepath.Join(e.root, ".bench_build")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	bin := filepath.Join(binDir, "alpsd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/alpsd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/alpsd: %v\n%s", err, out)
	}
	e.buildS = time.Since(t0).Seconds()
	e.alpsd = bin
	return nil
}

// dataDir makes a fresh directory under the run directory.
func (e *env) dataDir(name string) (string, error) {
	e.mu.Lock()
	e.dirs++
	dir := filepath.Join(e.runDir, fmt.Sprintf("%s-%d", name, e.dirs))
	e.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

// child is one alpsd process.
type child struct {
	name   string
	cmd    *exec.Cmd
	log    string
	done   chan struct{} // closed once the process has been waited on
	killed atomic.Bool   // kill was called: an exit is ours, not a crash
}

// spawn starts alpsd with args. gomaxprocs 0 leaves the child its default.
func (e *env) spawn(name string, gomaxprocs int, args ...string) (*child, error) {
	if err := e.build(); err != nil {
		return nil, err
	}
	logPath := filepath.Join(e.runDir, fmt.Sprintf("%s-%d.log", name, time.Now().UnixNano()))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.alpsd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = os.Environ()
	if gomaxprocs > 0 {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	}
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries nothing
		_ = logf.Close()
		close(c.done)
	}()
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()
	return c, nil
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the child and waits until it has been reaped, so its port
// and its data dir are free when kill returns. A child found already gone is
// left for cleanup to report.
func (c *child) kill() {
	if c.exited() {
		return
	}
	c.killed.Store(true)
	_ = c.cmd.Process.Kill() // it can only have exited in the meantime
	<-c.done
}

// logTail returns the end of the child's output, for error messages.
func (c *child) logTail() string {
	b, _ := os.ReadFile(c.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cleanup kills every child and removes the run directory. It reports a
// child that had exited on its own — a daemon crash, whatever its calls
// returned — and anything it could not get rid of.
func (e *env) cleanup() error {
	e.mu.Lock()
	children := e.children
	e.children = nil
	e.mu.Unlock()
	var crashed error
	for _, c := range children {
		c.kill()
		if !c.killed.Load() && crashed == nil {
			crashed = fmt.Errorf("%s exited on its own:\n%s", c.name, c.logTail())
		}
	}
	if err := os.RemoveAll(e.runDir); err != nil {
		return fmt.Errorf("leftover run directory: %w", err)
	}
	return crashed
}

// cleanupOnSignal makes SIGINT and SIGTERM take the children and data dirs
// down with the generator.
func (e *env) cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		_ = e.cleanup()
		os.Exit(130)
	}()
}

// freeAddrs reserves n distinct loopback addresses by binding and releasing
// them; the children bind them a moment later.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	var held []net.Listener
	defer func() {
		for _, l := range held {
			_ = l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// waitFor polls cond every few milliseconds until it holds or the timeout
// passes; what names the thing awaited, for the error.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
