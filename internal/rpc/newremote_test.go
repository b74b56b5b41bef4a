package rpc

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/channel"
)

// TestNewRemoteDialsOnFirstCall: a Remote from NewRemote connects on its
// first call, announces the channels published before it, and redials a
// node that restarted; only redials count as reconnects.
func TestNewRemoteDialsOnFirstCall(t *testing.T) {
	addr := reserveMultiAddrs(t, 1)[0]
	var dials atomic.Int64
	m := &Metrics{}
	opts := DialOptions{
		Redial: func() (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, time.Second)
		},
		Metrics: m,
	}

	// Built and handed a channel while its node is down: nothing dials.
	rem := NewRemote(addr, opts)
	defer rem.Close()
	progress := channel.New("progress")
	ref := rem.PublishChan("progress", progress)
	if n := dials.Load(); n != 0 {
		t.Fatalf("%d dials before the first call, want 0", n)
	}

	run := func(n int) error {
		res, err := rem.Call("Streamer", "Run", n, ref)
		if err != nil {
			return err
		}
		if res[0] != "done" {
			t.Fatalf("Run = %v", res)
		}
		deadline := make(chan struct{})
		timer := time.AfterFunc(5*time.Second, func() { close(deadline) })
		defer timer.Stop()
		for want := 1; want <= n; want++ {
			if msg, ok := progress.RecvDone(deadline); !ok || msg[0] != want {
				t.Fatalf("progress message %d: %v, %v", want, msg, ok)
			}
		}
		return nil
	}

	// The node listens: the first call connects and reaches the channel
	// published before the link existed.
	node, _ := startStreamer(t, addr)
	if err := run(3); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if n, r := dials.Load(), m.Reconnects.Value(); n != 1 || r != 0 {
		t.Fatalf("after the first call: %d dials, %d reconnects; want 1, 0", n, r)
	}

	// The node restarts at the same address: the same Remote redials,
	// after at most one attempt that meets the dead link.
	node.Close()
	node, _ = startStreamer(t, addr)
	defer node.Close()
	if err := run(2); err != nil {
		if err := run(2); err != nil {
			t.Fatalf("call after the restart: %v", err)
		}
	}
	if n, r := dials.Load(), m.Reconnects.Value(); n != 2 || r != 1 {
		t.Fatalf("after the restart: %d dials, %d reconnects; want 2, 1", n, r)
	}

	// Closed before any call: Close returns at once, and calls fail
	// without dialing.
	idle := NewRemote(addr, opts)
	start := time.Now()
	idle.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close of an undialed Remote took %v", d)
	}
	if _, err := idle.Call("Streamer", "Run", 1, ref); !errors.Is(err, errRemoteClosed) {
		t.Fatalf("call after Close = %v, want errRemoteClosed", err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2: the closed Remote dialed", n)
	}
}
