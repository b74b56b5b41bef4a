package replica

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/simnet"
)

// startBenchGroup boots a 3-member group over simnet, waits out the first
// election so the timed region is steady-state replication, and returns a
// multiplexed client dialed at the leader. Both replication benchmarks
// share it so their numbers differ only in workload shape.
func startBenchGroup(b *testing.B, readOnly func(string) bool) *rpc.Remote {
	b.Helper()
	nw := simnet.New(simnet.Config{Seed: 7})
	members := startGroup(b, nw, []string{"A", "B", "C"}, 7, groupOpts{readOnly: readOnly})
	leader := waitLeader(b, members, 3*time.Second)
	conn, err := nw.DialFrom("bench-client", leader.id)
	if err != nil {
		b.Fatal(err)
	}
	rem := rpc.DialConnWith(conn, rpc.DialOptions{ClientID: "bench-client"})
	b.Cleanup(rem.Close)
	return rem
}

// benchCalls issues b.N calls of entry from the given number of clients
// over the one multiplexed connection.
func benchCalls(b *testing.B, rem *rpc.Remote, entry string, clients int) {
	b.ResetTimer()
	var wg sync.WaitGroup
	per := (b.N + clients - 1) / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := rem.Call("KV", entry, "k"); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkReplicatedCall measures a committed call through a 3-member
// group: client -> leader -> quorum append -> apply -> reply. One client
// prices what consensus costs per call; 8 and 64 are where proposal
// combining and the pipelined AppendEntries window earn their keep — many
// proposals in flight coalesce into shared append+replicate rounds.
func BenchmarkReplicatedCall(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			benchCalls(b, startBenchGroup(b, nil), "Inc", clients)
		})
	}
}

// BenchmarkReplicatedRead prices the ReadIndex fast path: a quorum-checked
// linearizable read served from leader state with no log append, no
// journal sync and no per-read replication. At 64 clients one
// leadership-confirmation round covers every read registered before its
// ack lands. Compare against BenchmarkReplicatedCall — the gap is what
// skipping the log buys.
func BenchmarkReplicatedRead(b *testing.B) {
	for _, clients := range []int{1, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			rem := startBenchGroup(b, isGet)
			// Commit one write so reads observe real state through the barrier.
			if _, err := rem.Call("KV", "Inc", "k"); err != nil {
				b.Fatal(err)
			}
			benchCalls(b, rem, "Get", clients)
		})
	}
}
