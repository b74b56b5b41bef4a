package alps_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/simnet"
)

// TestChaosSoak runs a mixed client workload over a simnet with injected
// connection kills, byte corruption and a mid-run one-way partition pair,
// and asserts the at-most-once contract end to end: every invocation
// lands exactly once (zero lost, zero duplicated) and nothing leaks.
//
// Corruption injection became admissible here with the checksummed wire
// codec: every frame carries a CRC32-C, so a flipped byte is detected
// with certainty, kills the link typed (ErrBadFrame, docs/FAULTS.md §5)
// and funnels into the same retry/replay path as a connection kill — the
// gob era could only promise detection "with overwhelming probability".
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	before := runtime.NumGoroutine()

	network := simnet.New(simnet.Config{
		Latency:     100 * time.Microsecond,
		Jitter:      50 * time.Microsecond,
		KillProb:    0.02, // ≥1% per-write connection-kill probability
		CorruptProb: 0.01, // one flipped byte per ~100 writes; must die typed, never execute
		Seed:        42,
	})

	// Ledger records every executed invocation token, the dedup oracle.
	var (
		mu    sync.Mutex
		execs = make(map[string]int)
	)
	obj, err := core.New("Ledger",
		core.WithEntry(core.EntrySpec{Name: "Apply", Params: 1, Results: 1, Array: 16,
			Body: func(inv *core.Invocation) error {
				tok := inv.Param(0).(string)
				mu.Lock()
				execs[tok]++
				mu.Unlock()
				inv.Return(tok)
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}

	nodeMetrics := &rpc.Metrics{}
	node := rpc.NewNodeWith("server", rpc.NodeOptions{Metrics: nodeMetrics})
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	lis, err := network.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = node.Serve(lis) }()

	const clients, opsPer = 4, 300
	cliMetrics := &rpc.Metrics{}
	// Every run leaves its evidence, passing or not: the fixed seed's wall
	// time varies by orders of magnitude between runs, and a lost
	// invocation is only diagnosable from where every goroutine stood.
	start := time.Now()
	defer func() {
		t.Logf("chaos soak: wall %v; client retries %d, reconnects %d",
			time.Since(start).Round(time.Millisecond), cliMetrics.Retries.Value(), cliMetrics.Reconnects.Value())
	}()
	var dumpOnce sync.Once
	dumpStacks := func() {
		dumpOnce.Do(func() {
			buf := make([]byte, 1<<20)
			t.Logf("goroutine stacks at the first lost invocation:\n%s", buf[:runtime.Stack(buf, true)])
		})
	}
	var clientsDone atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer clientsDone.Add(1)
			name := fmt.Sprintf("c%d", c)
			redial := func() (net.Conn, error) { return network.DialFrom(name, "server") }
			conn, err := redial()
			if err != nil {
				t.Errorf("%s: initial dial: %v", name, err)
				return
			}
			rem := rpc.DialConnWith(conn, rpc.DialOptions{
				ClientID: name,
				Redial:   redial,
				Metrics:  cliMetrics,
				Retry: rpc.RetryPolicy{
					Max:            100,
					Backoff:        time.Millisecond,
					MaxBackoff:     25 * time.Millisecond,
					AttemptTimeout: time.Second,
				},
			})
			defer rem.Close()
			for i := 0; i < opsPer; i++ {
				tok := fmt.Sprintf("%s-%d", name, i)
				res, err := rem.Call("Ledger", "Apply", tok)
				if err != nil {
					dumpStacks()
					t.Errorf("%s: lost invocation %q: %v", name, tok, err)
					return
				}
				if len(res) != 1 || res[0] != tok {
					t.Errorf("%s: invocation %q answered %v", name, tok, res)
					return
				}
			}
		}(c)
	}

	// Mid-run: partition one client off in both directions once traffic is
	// demonstrably flowing, then heal after the partition has demonstrably
	// bitten (drops observed) — event-based waits, not wall-clock guesses.
	waitUntil(t, "100 ledger executions before partitioning", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(execs) >= 100
	})
	retriesBefore := cliMetrics.Retries.Value()
	network.Partition("c0", "server")
	network.Partition("server", "c0")
	// Heal once the partition has demonstrably bitten — but soon enough
	// that c0's retry budget survives. A dropped frame is the strongest
	// signal, but it only accrues on an established connection: if c0's
	// link was already dead (a kill or corruption landed first), the
	// partitioned client cannot even dial and drops never happen, so a
	// burst of retry attempts since the partition counts as bitten too.
	waitUntil(t, "partition drops (or clients finishing)", func() bool {
		_, _, partDrops := network.Stats()
		bitten := partDrops >= 1 || cliMetrics.Retries.Value() >= retriesBefore+5
		// clientsDone guards the rare schedule where every client finished
		// its ops before the partition could drop anything.
		return bitten || clientsDone.Load() == clients
	})
	network.Heal("c0", "server")
	network.Heal("server", "c0")

	wg.Wait()
	node.Close()
	if err := obj.Close(); err != nil {
		t.Errorf("ledger close: %v", err)
	}

	// Exactly-once ledger audit: every token executed exactly once.
	mu.Lock()
	lost, duplicated := 0, 0
	for c := 0; c < clients; c++ {
		for i := 0; i < opsPer; i++ {
			switch n := execs[fmt.Sprintf("c%d-%d", c, i)]; {
			case n == 0:
				lost++
			case n > 1:
				duplicated++
			}
		}
	}
	unexpected := len(execs) - clients*opsPer
	mu.Unlock()
	if lost != 0 {
		dumpStacks()
		t.Errorf("%d invocations lost", lost)
	}
	if duplicated != 0 {
		t.Errorf("%d invocations executed more than once", duplicated)
	}
	if unexpected > 0 {
		t.Errorf("%d unexpected tokens executed", unexpected)
	}

	kills, corruptions, partDrops := network.Stats()
	t.Logf("chaos: %d kills, %d corruptions, %d partition drops; client retries %d, reconnects %d; node dedup hits %d, drain drops %d",
		kills, corruptions, partDrops,
		cliMetrics.Retries.Value(), cliMetrics.Reconnects.Value(),
		nodeMetrics.DedupHits.Value(), nodeMetrics.DrainDrops.Value())
	if kills == 0 {
		t.Error("fault injection never fired — chaos test is vacuous")
	}
	if corruptions == 0 {
		t.Error("corruption injection never fired — CRC detection untested")
	}
	if cliMetrics.Reconnects.Value() == 0 {
		t.Error("no reconnects happened — resilience path untested")
	}

	// Goroutine-leak check with deadline-aware settling.
	settleGoroutines(t, before)
}

// TestOverloadCrashSoak combines every supervision mechanism under fault
// injection: a Restart-policy object whose manager panics on poison-pill
// tokens, a tight per-entry pending bound with reject-newest shedding, a
// faulty simnet, and two client populations — patient callers that retry
// overloads until every token lands, and impatient callers that give up
// after two attempts. Invariants: every call resolves (no hangs), no
// successful token executes twice, no shed-final token executes at all,
// the manager restarts at least once, shedding actually fired, and no
// goroutine leaks.
func TestOverloadCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("overload/crash soak skipped in -short mode")
	}
	before := runtime.NumGoroutine()

	network := simnet.New(simnet.Config{
		Latency:  100 * time.Microsecond,
		Jitter:   50 * time.Microsecond,
		KillProb: 0.01,
		Seed:     7,
	})

	// Ledger of executed tokens: the exactly-once / never-ran oracle.
	var (
		mu    sync.Mutex
		execs = make(map[string]int)
	)
	// Each distinct poison pill kills the manager once; the requeued call
	// is then served by the restarted incarnation.
	var pills sync.Map
	sup := &metrics.Supervision{}
	obj, err := core.New("Gate",
		core.WithEntry(core.EntrySpec{Name: "Apply", Params: 1, Results: 1, Array: 2,
			Body: func(inv *core.Invocation) error {
				tok := inv.Param(0).(string)
				mu.Lock()
				execs[tok]++
				mu.Unlock()
				time.Sleep(200 * time.Microsecond) // keep the entry busy so the bound bites
				inv.Return(tok)
				return nil
			}}),
		core.WithManager(func(m *core.Mgr) {
			for {
				a, err := m.Accept("Apply")
				if err != nil {
					return
				}
				if tok, ok := a.Params[0].(string); ok && strings.HasPrefix(tok, "boom") {
					if _, dup := pills.LoadOrStore(tok, true); !dup {
						panic("manager swallowed a poison pill: " + tok)
					}
				}
				if _, err := m.Execute(a); err != nil {
					return
				}
			}
		}, core.InterceptPR("Apply", 1, 0)),
		core.WithObjectOptions(core.ObjectOptions{
			ManagerPolicy: core.Restart,
			Restart:       core.RestartPolicy{Max: 20},
			MaxPending:    3,
			Shed:          core.ShedRejectNewest,
			Metrics:       sup,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	nodeMetrics := &rpc.Metrics{}
	node := rpc.NewNodeWith("server", rpc.NodeOptions{Metrics: nodeMetrics})
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	lis, err := network.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = node.Serve(lis) }()

	const patients, impatients, opsPer = 4, 2, 150
	cliMetrics := &rpc.Metrics{}
	var (
		finMu         sync.Mutex
		shedFinals    []string // tokens whose final outcome was ErrOverload
		otherFailures int
	)
	dial := func(name string, retry rpc.RetryPolicy) (*rpc.Remote, error) {
		redial := func() (net.Conn, error) { return network.DialFrom(name, "server") }
		conn, err := redial()
		if err != nil {
			return nil, err
		}
		return rpc.DialConnWith(conn, rpc.DialOptions{
			ClientID: name,
			Redial:   redial,
			Metrics:  cliMetrics,
			Retry:    retry,
		}), nil
	}

	var wg sync.WaitGroup
	// Patient clients: retry transport faults and overloads until every
	// token lands, injecting one poison pill each early in the run.
	for c := 0; c < patients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("p%d", c)
			rem, err := dial(name, rpc.RetryPolicy{
				Max: 50, Backoff: time.Millisecond, MaxBackoff: 25 * time.Millisecond,
				AttemptTimeout: time.Second,
			})
			if err != nil {
				t.Errorf("%s: dial: %v", name, err)
				return
			}
			defer rem.Close()
			for i := 0; i < opsPer; i++ {
				tok := fmt.Sprintf("%s-%d", name, i)
				if i == 10 {
					tok = "boom-" + tok // one pill per patient client
				}
				for {
					res, err := rem.Call("Gate", "Apply", tok)
					if errors.Is(err, core.ErrOverload) {
						time.Sleep(2 * time.Millisecond) // shed: never executed, safe to re-submit
						continue
					}
					if err != nil {
						t.Errorf("%s: token %q lost: %v", name, tok, err)
						return
					}
					if res[0] != tok {
						t.Errorf("%s: token %q answered %v", name, tok, res)
						return
					}
					break
				}
			}
		}(c)
	}
	// Impatient clients: two attempts, then give up. An overload final
	// must mean the call never executed; transport-failure finals make no
	// execution claim (the reply may have been killed after execution).
	for c := 0; c < impatients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("i%d", c)
			rem, err := dial(name, rpc.RetryPolicy{
				Max: 2, Backoff: time.Millisecond, AttemptTimeout: time.Second,
			})
			if err != nil {
				t.Errorf("%s: dial: %v", name, err)
				return
			}
			defer rem.Close()
			for i := 0; i < opsPer; i++ {
				tok := fmt.Sprintf("%s-%d", name, i)
				_, err := rem.Call("Gate", "Apply", tok)
				switch {
				case err == nil:
				case errors.Is(err, core.ErrOverload):
					finMu.Lock()
					shedFinals = append(shedFinals, tok)
					finMu.Unlock()
				default:
					finMu.Lock()
					otherFailures++
					finMu.Unlock()
				}
			}
		}(c)
	}

	wg.Wait()
	node.Close()
	if err := obj.Close(); err != nil {
		t.Errorf("gate close: %v", err)
	}

	// Audit the ledger: patient tokens land exactly once; impatient
	// overload finals never executed.
	mu.Lock()
	for c := 0; c < patients; c++ {
		for i := 0; i < opsPer; i++ {
			tok := fmt.Sprintf("p%d-%d", c, i)
			if i == 10 {
				tok = "boom-" + tok
			}
			if n := execs[tok]; n != 1 {
				t.Errorf("patient token %q executed %d times, want 1", tok, n)
			}
		}
	}
	for _, tok := range shedFinals {
		if n := execs[tok]; n != 0 {
			t.Errorf("shed-final token %q executed %d times, want 0", tok, n)
		}
	}
	mu.Unlock()

	st := obj.SupervisionStats()
	kills, _, _ := network.Stats()
	t.Logf("soak: %d kills; restarts %d, sheds %d; client overload retries %d, transport retries %d, reconnects %d; node overloads %d; impatient shed finals %d, other failures %d",
		kills, st.Restarts, st.Sheds,
		cliMetrics.Overloads.Value(), cliMetrics.Retries.Value(), cliMetrics.Reconnects.Value(),
		nodeMetrics.Overloads.Value(), len(shedFinals), otherFailures)

	if st.Restarts == 0 {
		t.Error("manager never restarted — poison pills did not fire")
	}
	if st.Poisoned {
		t.Error("object poisoned: restart budget exhausted under soak")
	}
	if st.Sheds == 0 {
		t.Error("admission control never shed — soak is vacuous")
	}
	if got := sup.Restarts.Value(); got != uint64(st.Restarts) {
		t.Errorf("metrics.Supervision.Restarts = %d, SupervisionStats.Restarts = %d", got, st.Restarts)
	}
	if got := sup.Sheds.Value(); got != st.Sheds {
		t.Errorf("metrics.Supervision.Sheds = %d, SupervisionStats.Sheds = %d", got, st.Sheds)
	}
	// Every overload final observed by a client corresponds to a shed the
	// node counted (the node may count more: patient retries, lost replies).
	if node, cli := nodeMetrics.Overloads.Value(), uint64(len(shedFinals)); node < cli {
		t.Errorf("node Overloads %d < client overload finals %d", node, cli)
	}

	// Goroutine-leak check with deadline-aware settling.
	settleGoroutines(t, before)
}
