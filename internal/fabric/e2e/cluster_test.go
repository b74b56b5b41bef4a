package e2e

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// Built binaries, shared across every run in the package.
var (
	buildOnce     sync.Once
	buildErr      error
	alpsdBin      string
	alpsclientBin string
)

// binaries builds the real alpsd and alpsclient once per test binary.
// The harness is black-box: everything on the data path runs as a
// separate OS process talking TCP. FABRIC_E2E_RACE=1 builds the child
// binaries with the race detector, so CI's race job watches the product
// side of the TCP boundary too, not just the harness side.
func binaries(t *testing.T) (string, string) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fabric-e2e-bin-")
		if err != nil {
			buildErr = err
			return
		}
		args := []string{"build", "-o", dir}
		if os.Getenv("FABRIC_E2E_RACE") == "1" {
			args = append(args, "-race")
		}
		args = append(args, "repro/cmd/alpsd", "repro/cmd/alpsclient")
		cmd := exec.Command("go", args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		alpsdBin = filepath.Join(dir, "alpsd")
		alpsclientBin = filepath.Join(dir, "alpsclient")
	})
	if buildErr != nil {
		t.Fatalf("building binaries: %v", buildErr)
	}
	return alpsdBin, alpsclientBin
}

// reservePort grabs a free loopback port and releases it for the caller
// to bind shortly after.
func reservePort(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	_ = lis.Close()
	return addr
}

// procNode is one alpsd process: a real listen address, a data dir whose
// journal survives SIGKILL, and the proxy its advertised address routes
// through.
type procNode struct {
	id       string
	realAddr string
	dataDir  string
	logPath  string
	px       *proxy
	args     []string

	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan struct{} // closed by the reaper once the process is waited on
}

func (n *procNode) start(t *testing.T) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cmd != nil {
		return
	}
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(alpsdBin, n.args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		t.Fatalf("start %s: %v", n.id, err)
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		_ = logf.Close()
		close(done)
	}()
	n.cmd, n.done = cmd, done
}

// kill SIGKILLs the node — no shutdown hooks run, which is the point:
// only the journal may save it.
func (n *procNode) kill() {
	n.mu.Lock()
	cmd, done := n.cmd, n.done
	n.cmd, n.done = nil, nil
	n.mu.Unlock()
	if cmd == nil {
		return
	}
	_ = cmd.Process.Kill()
	// Wait for the start goroutine to reap the process so the listen
	// port frees before a restart.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
}

func (n *procNode) running() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cmd != nil
}

// waitReady probes the node's real address (not the proxy: readiness is
// about the process, partitions are orthogonal).
func (n *procNode) waitReady(t *testing.T) {
	t.Helper()
	testutil.WaitUntil(t, n.id+" accepting", func() bool {
		c, err := net.DialTimeout("tcp", n.realAddr, 200*time.Millisecond)
		if err != nil {
			return false
		}
		_ = c.Close()
		return true
	})
}

// cluster is one chaos run's process fleet plus the harness's model of
// the current ring (epoch, placement seed, membership).
type cluster struct {
	t   *testing.T
	dir string

	bootSeed    uint64 // founding ring's placement seed
	bootMembers string // founding members spec (proxy addresses)

	epoch    uint64
	ringSeed uint64
	members  map[string]string // current membership, id -> proxy addr
	nodes    map[string]*procNode
	order    []string // node ids, deterministic iteration for seeded picks
}

// memberSpec renders "id=addr,..." with sorted ids, the format alpsd and
// alpsclient share.
func memberSpec(members map[string]string) string {
	ids := make([]string, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		parts = append(parts, id+"="+members[id])
	}
	return strings.Join(parts, ",")
}

// newCluster boots n founding members at epoch 0 behind proxies and
// waits until every process accepts.
func newCluster(t *testing.T, dir string, n int, seed uint64) *cluster {
	t.Helper()
	c := &cluster{
		t:        t,
		dir:      dir,
		bootSeed: seed,
		epoch:    0,
		ringSeed: seed,
		members:  make(map[string]string),
		nodes:    make(map[string]*procNode),
	}
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("n%d", i)
	}
	real := make(map[string]string)
	for _, id := range ids {
		real[id] = reservePort(t)
		c.members[id] = reservePort(t) // proxy address, advertised
	}
	c.bootMembers = memberSpec(c.members)
	for _, id := range ids {
		c.addNode(id, real[id], c.bootMembers, 0, seed)
	}
	for _, id := range ids {
		c.nodes[id].waitReady(t)
	}
	return c
}

// addNode creates (and starts) one member process plus its proxy. The
// boot ring flags pin the epoch/seed the node joins at; anything newer
// is learned from the journal or from peers.
func (c *cluster) addNode(id, realAddr, membersSpec string, epoch, seed uint64) *procNode {
	c.t.Helper()
	px := newProxy(c.members[id], realAddr)
	if err := px.Start(); err != nil {
		c.t.Fatalf("proxy %s: %v", id, err)
	}
	c.t.Cleanup(px.Stop)
	dataDir := filepath.Join(c.dir, id)
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		c.t.Fatal(err)
	}
	n := &procNode{
		id:       id,
		realAddr: realAddr,
		dataDir:  dataDir,
		logPath:  filepath.Join(c.dir, id+".log"),
		px:       px,
		args: []string{
			"-addr", realAddr,
			"-data-dir", dataDir,
			// A member journals a few hundred records in a run: at this
			// cadence nearly every SIGKILL lands past a store snapshot, so
			// restarts recover from checkpoint + suffix and the oracle
			// arbitrates that path (recoveries, below, proves it did).
			"-snapshot-every", "64",
			"-fabric-id", id,
			"-fabric-members", membersSpec,
			"-fabric-epoch", fmt.Sprint(epoch),
			"-fabric-seed", fmt.Sprint(seed),
			"-fabric-shards", "2",
			"-fabric-max-pending", "64",
		},
	}
	c.nodes[id] = n
	c.order = append(c.order, id)
	sort.Strings(c.order)
	n.start(c.t)
	c.t.Cleanup(n.kill)
	return n
}

// client builds an alpsclient invocation rooted at the founding members;
// the client adopts newer rings from wrong-owner hints like any other.
func (c *cluster) client(extra []string, args ...string) *exec.Cmd {
	base := []string{
		"-fabric-members", c.bootMembers,
		"-fabric-seed", fmt.Sprint(c.bootSeed),
		"-timeout", "5s",
	}
	base = append(base, extra...)
	base = append(base, args...)
	return exec.Command(alpsclientBin, base...)
}

// runClient runs an alpsclient command to completion, returning its
// combined output.
func (c *cluster) runClient(extra []string, args ...string) (string, error) {
	cmd := c.client(extra, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// loadProc is one running fabric-load process and where its ledger will
// land.
type loadProc struct {
	client string
	ledger string
	cmd    *exec.Cmd
	out    *bytes.Buffer
}

// startLoad launches one seeded fabric-load traffic process.
func (c *cluster) startLoad(client, prefix string, keys, seqs int, jitterSeed uint64, pace time.Duration) *loadProc {
	c.t.Helper()
	ledger := filepath.Join(c.dir, client+".ledger.json")
	var out bytes.Buffer
	cmd := c.client(
		[]string{"-client", client, "-load-deadline", "100s", "-load-pace", pace.String()},
		"fabric-load", prefix, fmt.Sprint(keys), fmt.Sprint(seqs), ledger, fmt.Sprint(jitterSeed),
	)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		c.t.Fatalf("start load %s: %v", client, err)
	}
	return &loadProc{client: client, ledger: ledger, cmd: cmd, out: &out}
}

// fabricStartup is alpsd's fabric startup line.
var fabricStartup = regexp.MustCompile(`alpsd: fabric member (\S+): recovered (\d+) keys, checkpoint@(\d+), (\d+) records replayed`)

// recoveries prints, per node and per restart, what the member recovered
// from — parsed from the startup line each incarnation wrote to the node's
// log; the first line is the boot, every later one a restart — and reports
// how many restarts restored a checkpoint.
func (c *cluster) recoveries(t *testing.T) (fromCheckpoint int) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-8s %6s %12s %9s\n", "node", "restart", "keys", "checkpoint@", "replayed")
	for _, id := range c.order {
		data, err := os.ReadFile(c.nodes[id].logPath)
		if err != nil {
			t.Fatalf("node log %s: %v", id, err)
		}
		for i, m := range fabricStartup.FindAllStringSubmatch(string(data), -1) {
			if i == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-5s %-8d %6s %12s %9s\n", m[1], i, m[2], m[3], m[4])
			if m[3] != "0" {
				fromCheckpoint++
			}
		}
	}
	t.Logf("restarts, as each member's startup line reported them:\n%s", b.String())
	return fromCheckpoint
}

// nodeLogTail returns the last lines of every node log, for failure
// reports.
func (c *cluster) nodeLogTail(lines int) string {
	var b strings.Builder
	for _, id := range c.order {
		data, err := os.ReadFile(c.nodes[id].logPath)
		if err != nil {
			continue
		}
		all := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(all) > lines {
			all = all[len(all)-lines:]
		}
		fmt.Fprintf(&b, "--- %s ---\n%s\n", id, strings.Join(all, "\n"))
	}
	return b.String()
}
