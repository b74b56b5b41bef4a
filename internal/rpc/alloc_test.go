//go:build !race

package rpc

import (
	"context"
	"testing"
)

// TestAllocsLoopbackCall pins one successful CallCtx over loopback TCP,
// client and node together, at the layer that owns the call path: the
// params slice, the request's decoded params, the body's results, the
// response's decoded results. The node serves the request on a parked
// serve goroutine and runs the body on it, the retry loop's backoff
// schedule is a stack value, and the decoders' string caches hold the
// header names. Race builds are excluded: the race runtime allocates on its
// own account.
//
// The client IDs: each of the first two shares a set of the node decoder's
// string cache with a name the call carries ("Echo", "P"); a direct-mapped
// cache allocated both strings on every frame for them (8.00 and 7.00
// allocs per call). The third shares a set with neither.
func TestAllocsLoopbackCall(t *testing.T) {
	_, addr := startEchoNode(t)
	for _, id := range []string{"e6d5c63adc8c3c1a", "e3779b97f4a7c150", "0123456789abcdef"} {
		rem, err := DialWith(addr, DialOptions{ClientID: id})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		call := func() {
			if _, err := rem.CallCtx(ctx, "Echo", "P", 21); err != nil {
				t.Fatal(err)
			}
		}
		call() // first use fills the decoders' string caches
		avg := testing.AllocsPerRun(200, call)
		rem.Close()
		t.Logf("client %s: %.2f allocs/call", id, avg)
		if avg > 4 {
			t.Errorf("client %s: loopback CallCtx: %.2f allocs/call, want <= 4", id, avg)
		}
	}
}
