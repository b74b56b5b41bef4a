package main

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	alps "repro"
	"repro/internal/rpc"
	"repro/internal/testutil"
)

// reservePorts grabs n distinct loopback ports by binding and releasing
// them. A later bind can race another process for the port; acceptable in
// tests, where a collision just fails fast.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		_ = lis.Close()
	}
	return addrs
}

// TestReplicatedRegistryFailover runs the daemon's advertised topology
// for real: three alpsd processes (in-process), a replicated Registry,
// a DialMulti client — then the leader dies and nobody notices.
func TestReplicatedRegistryFailover(t *testing.T) {
	addrs := reservePorts(t, 3)
	ids := []string{"A", "B", "C"}
	var peerParts []string
	for i, id := range ids {
		peerParts = append(peerParts, fmt.Sprintf("%s=%s", id, addrs[i]))
	}
	peers := strings.Join(peerParts, ",")

	servers := make(map[string]*server, 3)
	for i, id := range ids {
		srv := bootServer(t, []string{
			"-addr", addrs[i], "-name", id,
			"-replica-id", id, "-peers", peers,
			"-search-cost", "0s",
		})
		t.Cleanup(srv.Close)
		servers[id] = srv
	}

	rem, err := rpc.DialMulti(addrs, rpc.DialOptions{
		ClientID: "failover-test",
		Retry: rpc.RetryPolicy{
			Max:            200,
			Backoff:        time.Millisecond,
			MaxBackoff:     25 * time.Millisecond,
			AttemptTimeout: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	if _, err := rem.Call("Registry", "Put", "region", "eu-west"); err != nil {
		t.Fatalf("Put before failover: %v", err)
	}

	var leader *server
	deadline := time.Now().Add(3 * time.Second)
	for leader == nil && time.Now().Before(deadline) {
		for _, srv := range servers {
			if role, _, _ := srv.rep.Status(); role == alps.ReplicaLeader {
				leader = srv
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no leader elected")
	}
	leader.Close()

	if _, err := rem.Call("Registry", "Put", "owner", "ops"); err != nil {
		t.Fatalf("Put through failover: %v", err)
	}
	for key, want := range map[string]string{"region": "eu-west", "owner": "ops"} {
		res, err := rem.Call("Registry", "Get", key)
		if err != nil {
			t.Fatalf("Get %s after failover: %v", key, err)
		}
		if res[0] != want {
			t.Fatalf("Get %s = %v, want %q — the group forgot an acknowledged write", key, res, want)
		}
	}
}

// TestReplicationFlagValidation: half-configured replication must fail
// fast, not limp into a single-member group.
func TestReplicationFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-replica-id", "A"},
		{"-peers", "A=127.0.0.1:1"},
		{"-join"},
		{"-replica-id", "A", "-peers", "B=127.0.0.1:1"},
		{"-replica-id", "A", "-peers", "garbage"},
		{"-replica-id", "A", "-peers", "A=127.0.0.1:1,A=127.0.0.1:2"},
	} {
		srv, _, err := newServer(append([]string{"-addr", "127.0.0.1:0"}, args...))
		if err == nil {
			srv.Close()
			t.Errorf("newServer(%v) accepted a broken replication config", args)
		}
	}
}

// TestReplicaMemberRestartsPastStoreSnapshots: three members with data
// dirs and -snapshot-every 64, enough writes that every store snapshots and
// prunes several times, then one follower is stopped cleanly and started
// again with -join over the same directory. Its consensus state must come
// back from the store's checkpoint plus the records above it (before PR 18
// the restart died with "append@N leaves a gap after 0": the snapshot had
// pruned records no checkpoint covered), and it must rejoin and serve every
// acknowledged write.
func TestReplicaMemberRestartsPastStoreSnapshots(t *testing.T) {
	addrs := reservePorts(t, 3)
	ids := []string{"A", "B", "C"}
	var peerParts []string
	for i, id := range ids {
		peerParts = append(peerParts, fmt.Sprintf("%s=%s", id, addrs[i]))
	}
	peers := strings.Join(peerParts, ",")
	dirs := map[string]string{}
	args := func(i int, extra ...string) []string {
		return append([]string{
			"-addr", addrs[i], "-name", ids[i],
			"-replica-id", ids[i], "-peers", peers,
			"-data-dir", dirs[ids[i]], "-snapshot-every", "64",
			"-search-cost", "0s",
		}, extra...)
	}
	boot := func(args []string) *server {
		t.Helper()
		srv := bootServer(t, args)
		t.Cleanup(srv.Close)
		return srv
	}
	servers := make(map[string]*server, 3)
	for i, id := range ids {
		dirs[id] = t.TempDir()
		servers[id] = boot(args(i))
	}
	rem, err := rpc.DialMulti(addrs, rpc.DialOptions{
		ClientID: "restart-test",
		Retry: rpc.RetryPolicy{
			Max:            200,
			Backoff:        time.Millisecond,
			MaxBackoff:     25 * time.Millisecond,
			AttemptTimeout: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	const writes = 400
	last := map[string]string{} // every acknowledged key's final value
	put := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			k, v := fmt.Sprintf("k%d", i%16), fmt.Sprintf("v%d", i)
			if _, err := rem.Call("Registry", "Put", k, v); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
			last[k] = v
		}
	}
	put(0, writes)

	victim := -1
	for i, id := range ids {
		if role, _, _ := servers[id].rep.Status(); role != alps.ReplicaLeader {
			victim = i
			break
		}
	}
	id := ids[victim]
	if snaps, _ := filepath.Glob(filepath.Join(dirs[id], "snap-*.db")); len(snaps) == 0 {
		t.Fatalf("member %s took no store snapshot in %d writes; the restart would not cross one", id, writes)
	}
	_, preTerm, _ := servers[id].rep.Status()
	servers[id].Close()
	put(writes, writes+50)

	srv := boot(args(victim, "-join"))
	if _, term, _ := srv.rep.Status(); term < preTerm {
		t.Fatalf("%s restarted at term %d, below the term %d it held when stopped", id, term, preTerm)
	}
	testutil.WaitUntil(t, id+" to apply every acknowledged write after rejoining", func() bool { return srv.rep.Applied() >= writes+50 })
	for k, want := range last {
		res, err := srv.reg.Call("Get", k)
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != want {
			t.Fatalf("restarted member holds %s = %v, want %q", k, res[0], want)
		}
	}
}
