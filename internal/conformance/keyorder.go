package conformance

import "fmt"

// KeyedExec is one observed execution in a sharded or remote deployment's
// ledger: the routing key, the issuing client, that client's per-key
// sequence number (clients issue synchronously, numbering 0,1,2,...), the
// shard or node that executed the call, and — for fabric deployments —
// the key's placement epoch at execution time (0 when the deployment
// never reshards).
type KeyedExec struct {
	Key    string
	Client string
	Seq    int
	Shard  string
	Epoch  uint64
}

// CheckKeyOrder replays an execution ledger (in observed execution order)
// against the sharding/RPC invariants the runtime promises:
//
//	key-affinity:  within one placement epoch, every execution for a key
//	               lands on the same shard — the key router never splits a
//	               key. A key may change shard only together with an epoch
//	               increase (a fabric handoff); single-process deployments
//	               leave Epoch at 0 and recover the original strict rule.
//	epoch-regress: a key's placement epoch never decreases — once a handoff
//	               moves a key to a new home, no call executes at the old
//	               placement again.
//	per-key-fifo:  for each (client, key), sequence numbers execute in issue
//	               order with no gaps — a synchronous client's calls are
//	               totally ordered through its key's object, and the
//	               drain-then-redirect handoff preserves that order across
//	               process boundaries.
//	at-most-once:  no (client, key, seq) executes twice — the dedup ledger
//	               absorbs retries even under connection kills, partitions
//	               and redirects past a handoff.
func CheckKeyOrder(execs []KeyedExec) []Divergence {
	type ck struct{ client, key string }
	type cks struct {
		client, key string
		seq         int
	}
	type placement struct {
		shard string
		epoch uint64
	}
	place := make(map[string]placement)
	lastSeq := make(map[ck]int)
	seen := make(map[cks]int) // index of first execution
	var divs []Divergence
	for i, e := range execs {
		if prev, ok := place[e.Key]; !ok {
			place[e.Key] = placement{e.Shard, e.Epoch}
		} else {
			switch {
			case e.Epoch < prev.epoch:
				divs = append(divs, Divergence{
					Rule:  "epoch-regress",
					Entry: e.Key,
					Index: i,
					Detail: fmt.Sprintf("key %q executed at epoch %d after epoch %d",
						e.Key, e.Epoch, prev.epoch),
				})
			case e.Epoch == prev.epoch && e.Shard != prev.shard:
				divs = append(divs, Divergence{
					Rule:  "key-affinity",
					Entry: e.Key,
					Index: i,
					Detail: fmt.Sprintf("key %q executed on shard %q after shard %q within epoch %d",
						e.Key, e.Shard, prev.shard, e.Epoch),
				})
			default:
				place[e.Key] = placement{e.Shard, e.Epoch}
			}
		}
		id := cks{e.Client, e.Key, e.Seq}
		if first, dup := seen[id]; dup {
			divs = append(divs, Divergence{
				Rule:  "at-most-once",
				Entry: e.Key,
				Index: i,
				Detail: fmt.Sprintf("client %q key %q seq %d executed again (first at index %d)",
					e.Client, e.Key, e.Seq, first),
			})
			continue // don't double-report as a FIFO violation too
		}
		seen[id] = i
		c := ck{e.Client, e.Key}
		last, started := lastSeq[c]
		want := 0
		if started {
			want = last + 1
		}
		if e.Seq != want {
			divs = append(divs, Divergence{
				Rule:  "per-key-fifo",
				Entry: e.Key,
				Index: i,
				Detail: fmt.Sprintf("client %q key %q executed seq %d, expected %d",
					e.Client, e.Key, e.Seq, want),
			})
		}
		if !started || e.Seq > last {
			lastSeq[c] = e.Seq
		}
	}
	return divs
}
