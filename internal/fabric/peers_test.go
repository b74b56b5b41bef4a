package fabric

import (
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

// TestPeersColdCacheDialRace: callers racing to a member with no cached
// link all get the one Remote the cache creates for it, which dials on the
// first call and stays open under its users. conn dials nothing, so no
// caller can lose a dial race and close a link another caller is using.
func TestPeersColdCacheDialRace(t *testing.T) {
	n := soloNode(t, 1)
	ctx := testCtx(t)
	p := newPeers(2 * time.Second)
	defer p.close()

	const callers = 16
	rems := make([]*rpc.Remote, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if rems[i], errs[i] = p.conn("solo", n.addr); errs[i] != nil {
				return
			}
			var res []any
			if res, errs[i] = rems[i].CallCtx(ctx, "fabric", "Status"); errs[i] == nil && res[1] != n.host.Spec() {
				t.Errorf("caller %d: Status() = %v", i, res)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range rems {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if rems[i] != rems[0] {
			t.Fatalf("caller %d got a link of its own; the cache holds one per member", i)
		}
	}
	if _, err := rems[0].CallCtx(ctx, "fabric", "Status"); err != nil {
		t.Fatalf("the cached link was closed under its users: %v", err)
	}
}
