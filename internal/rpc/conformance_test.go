package rpc

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/simnet"
)

// TestRPCKeyOrderConformance replays a remote execution ledger, produced
// under connection-kill chaos, through the conformance key-order checker:
// the at-most-once dedup layer must absorb every retry (no (client, key,
// seq) executes twice) and each synchronous client's per-key calls must
// execute in issue order despite reconnects.
func TestRPCKeyOrderConformance(t *testing.T) {
	network := simnet.New(simnet.Config{
		Latency:  50 * time.Microsecond,
		Jitter:   25 * time.Microsecond,
		KillProb: 0.02,
		Seed:     7,
	})

	var (
		mu     sync.Mutex
		ledger []conformance.KeyedExec
	)
	obj, err := core.New("Led",
		core.WithEntry(core.EntrySpec{Name: "Exec", Params: 3, Results: 1, Array: 8,
			Body: func(inv *core.Invocation) error {
				mu.Lock()
				ledger = append(ledger, conformance.KeyedExec{
					Key:    inv.Param(0).(string),
					Client: inv.Param(1).(string),
					Seq:    inv.Param(2).(int),
					Shard:  "srv",
				})
				mu.Unlock()
				inv.Return(inv.Param(2))
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}

	node := NewNodeWith("srv", NodeOptions{})
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	lis, err := network.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = node.Serve(lis) }()

	const clients, keysPer, seqsPer = 3, 2, 30
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("c%d", c)
			redial := func() (net.Conn, error) { return network.DialFrom(client, "srv") }
			conn, err := redial()
			if err != nil {
				t.Errorf("%s: initial dial: %v", client, err)
				return
			}
			rem := DialConnWith(conn, DialOptions{
				ClientID: client,
				Redial:   redial,
				Retry: RetryPolicy{
					Max:            100,
					Backoff:        time.Millisecond,
					MaxBackoff:     25 * time.Millisecond,
					AttemptTimeout: time.Second,
				},
			})
			defer rem.Close()
			// Interleave the client's keys; per-key seq order follows from
			// the calls being synchronous.
			for s := 0; s < seqsPer; s++ {
				for k := 0; k < keysPer; k++ {
					key := fmt.Sprintf("%s-key%d", client, k)
					res, err := rem.Call("Led", "Exec", key, client, s)
					if err != nil {
						t.Errorf("%s %s seq %d: %v", client, key, s, err)
						return
					}
					if len(res) != 1 || res[0] != s {
						t.Errorf("%s %s seq %d: answered %v", client, key, s, res)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	node.Close()
	if err := obj.Close(); err != nil {
		t.Errorf("close: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if want := clients * keysPer * seqsPer; len(ledger) != want {
		t.Errorf("ledger has %d executions, want %d (retry executed twice, or call lost)", len(ledger), want)
	}
	for _, d := range conformance.CheckKeyOrder(ledger) {
		t.Errorf("divergence: %s", d)
	}
	kills, _, _ := network.Stats()
	t.Logf("chaos: %d connection kills over %d executions", kills, len(ledger))
	if kills == 0 {
		t.Error("fault injection never fired — conformance run is vacuous")
	}
}
