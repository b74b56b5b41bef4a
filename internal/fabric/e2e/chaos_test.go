package e2e

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/fabric"
	"repro/internal/workload"
)

// actionsPerRun is each seeded run's chaos budget. Three corpus seeds ×
// 70 actions = 210 seeded chaos actions per full pass, all driven
// against real alpsd processes over loopback TCP.
const actionsPerRun = 70

// TestChaosOracle is the fabric's black-box convergence proof: build the
// real binaries, boot a founding 3-node cluster behind partitionable
// proxies, run seeded mixed traffic from separate alpsclient processes,
// and interleave SIGKILLs, partitions, live reshards (including the 3→6
// growth mid-traffic) and overload bursts. When the dust settles, every
// client-side ledger is merged and replayed through the conformance
// oracle: counts contiguous (nothing lost, nothing executed twice),
// per-key FIFO per client across placement epochs, and the owners'
// ledgers agreeing with everything the clients were told.
//
// Every run is reproducible: FABRIC_E2E_SEED=<seed> reruns exactly one
// seed's action schedule.
func TestChaosOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("black-box e2e chaos harness; skipped with -short")
	}
	binaries(t)
	seeds := []uint64{1, 2, 3}
	if env := os.Getenv("FABRIC_E2E_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("FABRIC_E2E_SEED=%q: %v", env, err)
		}
		seeds = []uint64{v}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed)
		})
	}
}

// reproducer is printed with every failure so one command replays the
// exact schedule that broke.
func reproducer(seed uint64) string {
	return fmt.Sprintf("reproduce with: FABRIC_E2E_SEED=%d go test ./internal/fabric/e2e -run TestChaosOracle -count=1 -v", seed)
}

func runChaos(t *testing.T, seed uint64) {
	// A run's working state (node logs, journals, client ledgers) survives
	// a failure: the journals are the evidence (`go run ./cmd/alpswal`).
	// FABRIC_E2E_DIR names where every run's state goes and keeps it even
	// on success — CI uploads it as the failure artifact.
	var dir string
	if base := os.Getenv("FABRIC_E2E_DIR"); base != "" {
		dir = filepath.Join(base, fmt.Sprintf("seed-%d", seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	} else {
		var err error
		if dir, err = os.MkdirTemp("", fmt.Sprintf("fabric-e2e-seed-%d-", seed)); err != nil {
			t.Fatal(err)
		}
		// Registered before the cluster's own cleanups, so it runs after them:
		// every process has stopped writing here by then.
		t.Cleanup(func() {
			if t.Failed() {
				t.Logf("kept the run's working directory for forensics: %s", dir)
				return
			}
			_ = os.RemoveAll(dir)
		})
	}
	c := newCluster(t, dir, 3, 1000+seed)
	rng := workload.NewRNG(seed)

	// Mixed traffic: four clients interleaving on six shared keys, paced
	// so their streams span the chaos window (and in particular are still
	// mid-flight when the ring grows).
	loads := make([]*loadProc, 0, 4)
	for i := 0; i < 4; i++ {
		loads = append(loads, c.startLoad(fmt.Sprintf("c%d", i), "w", 6, 50, seed*100+uint64(i), 150*time.Millisecond))
	}
	bursts := make([]*loadProc, 0, 16)

	growAt := 8 + rng.Intn(6)
	var kills, partitions, reshards, burstN, pauses int
	for i := 0; i < actionsPerRun; i++ {
		if i == growAt {
			c.grow(t, seed, []string{"n3", "n4", "n5"})
			reshards++
			continue
		}
		switch p := rng.Intn(100); {
		case p < 20:
			// SIGKILL a member, then restart it on its journal. The node
			// must come back owing nothing it acknowledged.
			id := c.order[rng.Intn(len(c.order))]
			n := c.nodes[id]
			n.kill()
			time.Sleep(time.Duration(150+rng.Intn(400)) * time.Millisecond)
			n.start(t)
			n.waitReady(t)
			kills++
		case p < 45:
			// Partition a member from everyone — peers and clients — then
			// heal. Handoffs and settles must stall, not fork.
			id := c.order[rng.Intn(len(c.order))]
			px := c.nodes[id].px
			px.Stop()
			time.Sleep(time.Duration(150+rng.Intn(400)) * time.Millisecond)
			px.Start()
			partitions++
		case p < 56:
			// Reshard in place with a new placement seed: same members,
			// new epoch, most keys migrate live.
			c.reshard(t, seed)
			reshards++
		case p < 76:
			// Overload burst: a short-lived extra client hammering fresh
			// keys at full speed; sheds surface as typed retry hints, not
			// lost calls.
			name := fmt.Sprintf("b%d", i)
			bursts = append(bursts, c.startLoad(name, name, 3, 8, seed^uint64(i), 0))
			burstN++
		default:
			time.Sleep(time.Duration(80+rng.Intn(220)) * time.Millisecond)
			pauses++
		}
	}

	// Heal everything: every proxy forwarding, every process running. The
	// fabric's obligations (handoffs, settles, retried appends) must now
	// drain to a single converged history.
	for _, id := range c.order {
		c.nodes[id].px.Start()
		if !c.nodes[id].running() {
			c.nodes[id].start(t)
			c.nodes[id].waitReady(t)
		}
	}
	t.Logf("seed %d: %d actions (%d kills, %d partitions, %d reshards, %d bursts, %d pauses), ring at epoch %d with %d members",
		seed, actionsPerRun, kills, partitions, reshards, burstN, pauses, c.epoch, len(c.members))

	// Every traffic process must finish with a full ledger: a sequence
	// gap (exit 5) or an incomplete stream is a lost or reordered call.
	var execs []fabric.Exec
	for _, lp := range append(append([]*loadProc{}, loads...), bursts...) {
		if err := lp.cmd.Wait(); err != nil {
			t.Fatalf("load %s failed: %v\noutput:\n%s\n%s\nnode logs:\n%s",
				lp.client, err, lp.out.String(), reproducer(seed), c.nodeLogTail(15))
		}
		lf := readLedger(t, lp.ledger)
		if len(lf.Incomplete) > 0 {
			t.Fatalf("load %s left incomplete streams %v\n%s", lp.client, lf.Incomplete, reproducer(seed))
		}
		execs = append(execs, lf.Execs...)
	}
	t.Logf("seed %d: %d acknowledged appends across %d traffic processes", seed, len(execs), len(loads)+len(bursts))

	// Oracle, part 1: acknowledged counts per key are exactly 1..N —
	// no execution lost, none duplicated.
	if problems := checkCounts(execs); len(problems) > 0 {
		t.Fatalf("count contiguity violated:\n%s\n%s", problems[0], reproducer(seed))
	}
	// Oracle, part 2: replay the reconstructed server order through the
	// conformance checker — per-key FIFO per client, single placement per
	// epoch, monotone epochs.
	if divs := conformance.CheckKeyOrder(serverOrder(execs)); len(divs) > 0 {
		t.Fatalf("CheckKeyOrder found %d divergences:\n%s%s", len(divs), formatDivergences(divs), reproducer(seed))
	}
	// Oracle, part 3: the owners' ledgers must agree with everything the
	// clients were told.
	auditOracle(t, c, execs)
	// The oracle above arbitrated recovery from a pruned journal only if
	// some restart went through one. (Per run, not per node: a member
	// killed before its 64th record has no checkpoint yet.)
	if c.recoveries(t) == 0 {
		t.Fatalf("no restart in the run recovered from a checkpoint — checkpoint + suffix recovery went unexercised\n%s", reproducer(seed))
	}
	// And the run must actually have proven a live migration: some key
	// executed at two epochs on two nodes.
	if key, ok := migrationProof(execs); !ok {
		t.Fatalf("no key migrated across epochs — chaos schedule never exercised a live handoff\n%s", reproducer(seed))
	} else {
		t.Logf("seed %d: live migration proven (key %q executed on two nodes at two epochs)", seed, key)
	}
}

// grow boots the new members at the next epoch's ring (so their
// fresh-create gate holds from the first byte) and reshards the cluster
// onto the doubled membership — the paper's N→2N reconfiguration, live.
func (c *cluster) grow(t *testing.T, seed uint64, newIDs []string) {
	t.Helper()
	newEpoch := c.epoch + 1
	newSeed := c.bootSeed + 97*newEpoch
	pxs := c.reserve(newIDs)
	spec := memberSpec(c.members)
	for _, id := range newIDs {
		c.addNode(id, pxs[id], spec, newEpoch, newSeed)
	}
	for _, id := range newIDs {
		c.nodes[id].waitReady(t)
	}
	out, err := c.runClient(nil, "fabric-reshard", fmt.Sprint(newEpoch), spec, fmt.Sprint(newSeed))
	if err != nil {
		t.Fatalf("grow reshard: %v\n%s\n%s", err, out, reproducer(seed))
	}
	c.epoch, c.ringSeed = newEpoch, newSeed
}

// reshard bumps the epoch with a fresh placement seed over the current
// membership: a same-size migration that moves most keys.
func (c *cluster) reshard(t *testing.T, seed uint64) {
	t.Helper()
	newEpoch := c.epoch + 1
	newSeed := c.bootSeed + 97*newEpoch
	spec := memberSpec(c.members)
	out, err := c.runClient(nil, "fabric-reshard", fmt.Sprint(newEpoch), spec, fmt.Sprint(newSeed))
	if err != nil {
		t.Fatalf("reshard to epoch %d: %v\n%s\n%s", newEpoch, err, out, reproducer(seed))
	}
	c.epoch, c.ringSeed = newEpoch, newSeed
}
