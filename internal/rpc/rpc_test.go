package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
)

// startEchoNode hosts an object "Echo" with entry "P" (one int param, one
// int result) and returns the node and its address.
func startEchoNode(t *testing.T) (*Node, string) {
	t.Helper()
	obj, err := core.New("Echo",
		core.WithEntry(core.EntrySpec{Name: "P", Params: 1, Results: 1, Array: 8,
			Body: func(inv *core.Invocation) error {
				inv.Return(inv.Param(0).(int) * 2)
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = obj.Close() })

	node := NewNode("alpha")
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	addr, err := node.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node, addr
}

func TestRemoteCallRoundTrip(t *testing.T) {
	_, addr := startEchoNode(t)
	rem, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	res, err := rem.Call("Echo", "P", 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != 42 {
		t.Fatalf("remote call = %v", res)
	}
}

func TestRemoteObjectHandle(t *testing.T) {
	_, addr := startEchoNode(t)
	rem, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	ro := rem.Object("Echo")
	if ro.Name() != "Echo" {
		t.Fatalf("Name = %q", ro.Name())
	}
	res, err := ro.Call("P", 5)
	if err != nil || res[0] != 10 {
		t.Fatalf("handle call = %v, %v", res, err)
	}
}

func TestUnknownObjectAndEntry(t *testing.T) {
	_, addr := startEchoNode(t)
	rem, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	if _, err := rem.Call("Nope", "P", 1); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown object err = %v", err)
	}
	if _, err := rem.Call("Echo", "Nope", 1); !errors.Is(err, core.ErrUnknownEntry) {
		t.Errorf("unknown entry err = %v (sentinel must survive the wire)", err)
	}
	if _, err := rem.Call("Echo", "P"); !errors.Is(err, core.ErrBadArity) {
		t.Errorf("bad arity err = %v", err)
	}
}

func TestList(t *testing.T) {
	node, addr := startEchoNode(t)
	if got := node.Objects(); len(got) != 1 || got[0] != "Echo" {
		t.Fatalf("node.Objects = %v", got)
	}
	rem, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	names, err := rem.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "Echo" {
		t.Fatalf("List = %v", names)
	}
}

func TestConcurrentRemoteCalls(t *testing.T) {
	_, addr := startEchoNode(t)
	rem, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := rem.Call("Echo", "P", i)
			if err != nil {
				t.Errorf("Call(%d): %v", i, err)
				return
			}
			if res[0] != i*2 {
				t.Errorf("Call(%d) = %v: response cross-talk", i, res[0])
			}
		}(i)
	}
	wg.Wait()
}

func TestMultipleClients(t *testing.T) {
	_, addr := startEchoNode(t)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rem, err := Dial(addr)
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer rem.Close()
			for i := 0; i < 20; i++ {
				v := c*100 + i
				res, err := rem.Call("Echo", "P", v)
				if err != nil || res[0] != v*2 {
					t.Errorf("client %d: Call(%d) = %v, %v", c, v, res, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// startStreamer serves, at addr, a Streamer object whose Run(n, ch) sends
// 1..n on ch before it answers, and reports the address it listens on.
func startStreamer(t *testing.T, addr string) (*Node, string) {
	t.Helper()
	obj, err := core.New("Streamer",
		core.WithEntry(core.EntrySpec{Name: "Run", Params: 2, Results: 1,
			Body: func(inv *core.Invocation) error {
				n := inv.Param(0).(int)
				progress, ok := inv.Param(1).(*channel.Chan)
				if !ok {
					return fmt.Errorf("param 1 is %T, want *channel.Chan", inv.Param(1))
				}
				for i := 1; i <= n; i++ {
					if err := progress.Send(i); err != nil {
						return err
					}
				}
				inv.Return("done")
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { obj.Close() })
	node := NewNode("beta")
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	addr, err = node.ListenAndServe(addr)
	if err != nil {
		t.Fatal(err)
	}
	return node, addr
}

// TestChannelToExecutingRemoteProcedure exercises the paper's §1 claim: the
// caller passes a channel to a remote entry call and receives messages from
// the executing procedure while it runs.
func TestChannelToExecutingRemoteProcedure(t *testing.T) {
	node, addr := startStreamer(t, "127.0.0.1:0")
	defer node.Close()

	rem, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	progress := channel.New("progress")
	ref := rem.PublishChan("progress", progress)
	res, err := rem.Call("Streamer", "Run", 5, ref)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "done" {
		t.Fatalf("result = %v", res)
	}
	deadline := make(chan struct{})
	timer := time.AfterFunc(5*time.Second, func() { close(deadline) })
	defer timer.Stop()
	for want := 1; want <= 5; want++ {
		m, ok := progress.RecvDone(deadline)
		if !ok {
			t.Fatal("progress message lost")
		}
		if m[0] != want {
			t.Fatalf("progress = %v, want %d", m[0], want)
		}
	}
}

func TestClientCloseFailsInflightCalls(t *testing.T) {
	gate := make(chan struct{})
	obj, err := core.New("Slow",
		core.WithEntry(core.EntrySpec{Name: "P", Results: 1,
			Body: func(inv *core.Invocation) error {
				select {
				case <-gate:
				case <-inv.Done():
				}
				inv.Return("late")
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	defer close(gate)

	node := NewNode("gamma")
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	addr, err := node.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	rem, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := rem.Call("Slow", "P")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	rem.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call survived Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call not failed by Close")
	}
}

func TestCallCtxTimeout(t *testing.T) {
	gate := make(chan struct{})
	obj, err := core.New("Slow",
		core.WithEntry(core.EntrySpec{Name: "P", Results: 1,
			Body: func(inv *core.Invocation) error {
				select {
				case <-gate:
				case <-inv.Done():
				}
				inv.Return("late")
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	defer close(gate)

	node := NewNode("delta")
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	addr, err := node.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	rem, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := rem.CallCtx(ctx, "Slow", "P"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestPublishValidation(t *testing.T) {
	node := NewNode("x")
	defer node.Close()
	obj, err := core.New("A",
		core.WithEntry(core.EntrySpec{Name: "P", Body: func(inv *core.Invocation) error { return nil }}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	if err := node.Publish(obj); err == nil {
		t.Fatal("duplicate publish succeeded")
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	node, _ := startEchoNode(t)
	node.Close()
	node.Close()
}

func TestErrCodec(t *testing.T) {
	tests := []struct {
		err  error
		want error
	}{
		{core.ErrClosed, core.ErrClosed},
		{fmt.Errorf("wrap: %w", core.ErrUnknownEntry), core.ErrUnknownEntry},
		{ErrUnknownObject, ErrUnknownObject},
		{core.ErrBadArity, core.ErrBadArity},
		{errors.New("generic"), nil},
	}
	for _, tt := range tests {
		msg, kind := encodeErr(tt.err)
		back := decodeErr(msg, kind)
		if back == nil {
			t.Fatalf("decodeErr(%v) = nil", tt.err)
		}
		if tt.want != nil && !errors.Is(back, tt.want) {
			t.Errorf("sentinel lost: %v -> %v", tt.err, back)
		}
	}
	if msg, kind := encodeErr(nil); msg != "" || kind != errNone {
		t.Error("encodeErr(nil) not empty")
	}
	if decodeErr("", errNone) != nil {
		t.Error("decodeErr(none) not nil")
	}
}
