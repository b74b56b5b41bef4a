//go:build !race

package rpc

import (
	"context"
	"testing"
)

// TestAllocsLoopbackCall pins one successful CallCtx over loopback TCP,
// client and node together, at the layer that owns the call path. The
// retry loop's backoff schedule is a stack value, so a call that never
// retries pays nothing for it. Race builds are excluded: the race runtime
// allocates on its own account.
func TestAllocsLoopbackCall(t *testing.T) {
	_, addr := startEchoNode(t)
	rem, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	ctx := context.Background()
	call := func() {
		if _, err := rem.CallCtx(ctx, "Echo", "P", 21); err != nil {
			t.Fatal(err)
		}
	}
	call() // first use fills the decoders' string caches
	if avg := testing.AllocsPerRun(200, call); avg > 7 {
		t.Errorf("loopback CallCtx: %.2f allocs/call, want <= 7", avg)
	}
}
