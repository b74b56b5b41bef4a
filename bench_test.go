// Benchmarks, one per experiment in DESIGN.md §4 / EXPERIMENTS.md. These
// measure the mechanism overheads with tight loops (null or near-null
// bodies); the shape results — who wins under which workload — come from
// the experiment harness (go run ./cmd/alpsbench), which drives realistic
// simulated costs.
package alps_test

import (
	"fmt"
	"sync"
	"testing"

	alps "repro"
	"repro/internal/baseline"
	"repro/internal/experiments"
	"repro/internal/objects/buffer"
	"repro/internal/objects/crossobj"
	"repro/internal/objects/dict"
	"repro/internal/objects/diskhead"
	"repro/internal/objects/parbuffer"
	"repro/internal/objects/rwdb"
	"repro/internal/objects/spooler"
	"repro/internal/pathexpr"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// BenchmarkE1BoundedBuffer measures one deposit+remove pair per iteration.
func BenchmarkE1BoundedBuffer(b *testing.B) {
	b.Run("alps-manager", func(b *testing.B) {
		b.ReportAllocs()
		buf, err := buffer.New(8)
		if err != nil {
			b.Fatal(err)
		}
		defer buf.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := buf.Deposit(i); err != nil {
				b.Fatal(err)
			}
			if _, err := buf.Remove(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Multi-client scaling: the same deposit+remove pair driven by N
	// concurrent clients. ns/op is wall time over total ops, so a flat
	// line across client counts means added concurrency buys nothing.
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("alps-manager/clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			buf, err := buffer.New(8)
			if err != nil {
				b.Fatal(err)
			}
			defer buf.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/clients + 1
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := buf.Deposit(i); err != nil {
							b.Error(err)
							return
						}
						if _, err := buf.Remove(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
	b.Run("monitor", func(b *testing.B) {
		b.ReportAllocs()
		buf := baseline.NewMonitorBuffer(8)
		defer buf.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := buf.Deposit(i); err != nil {
				b.Fatal(err)
			}
			if _, err := buf.Remove(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("semaphore", func(b *testing.B) {
		b.ReportAllocs()
		buf := baseline.NewSemaphoreBuffer(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Deposit(i)
			buf.Remove()
		}
	})
}

// BenchmarkE2ReadersWriters measures a 90/10 read/write mix per iteration.
func BenchmarkE2ReadersWriters(b *testing.B) {
	b.Run("alps-rwdb", func(b *testing.B) {
		b.ReportAllocs()
		db, err := rwdb.New(rwdb.Config{ReadMax: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		mix, err := workload.NewOpMix(1, 32, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := mix.Next()
			if op.Write {
				if err := db.Write(op.Key, op.Value); err != nil {
					b.Fatal(err)
				}
			} else if _, _, err := db.Read(op.Key); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rwmutex", func(b *testing.B) {
		b.ReportAllocs()
		db := baseline.NewBoundedRWDB(4)
		mix, err := workload.NewOpMix(1, 32, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := mix.Next()
			if op.Write {
				db.Write(op.Key, op.Value)
			} else {
				db.Read(op.Key)
			}
		}
	})
}

// BenchmarkE3Combining measures per-request cost under a duplicated
// concurrent workload, with combining on and off.
func BenchmarkE3Combining(b *testing.B) {
	for _, combine := range []bool{true, false} {
		b.Run(fmt.Sprintf("combine=%v", combine), func(b *testing.B) {
			b.ReportAllocs()
			d, err := dict.New(dict.Options{
				SearchMax: 16,
				MaxActive: 2,
				Combine:   combine,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			const clients = 8
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/clients + 1
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					ws, err := workload.NewWordStream(uint64(c), 8, 1.1)
					if err != nil {
						b.Error(err)
						return
					}
					for i := 0; i < per; i++ {
						if _, err := d.Search(ws.Next()); err != nil {
							b.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// BenchmarkE4Spooler measures one print job per iteration (zero page cost).
func BenchmarkE4Spooler(b *testing.B) {
	b.ReportAllocs()
	s, err := spooler.New(spooler.Config{Printers: 4, PrintMax: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Print("bench", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5ParallelBuffer compares the §2.8.2 parallel buffer against the
// serial §2.4.1 buffer with concurrent producers/consumers and no copy cost
// (mechanism overhead only; the shape with long copies is in alpsbench E5).
func BenchmarkE5ParallelBuffer(b *testing.B) {
	run := func(b *testing.B, deposit func(any) error, remove func() (any, error)) {
		b.ResetTimer()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if err := deposit(i); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if _, err := remove(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		wg.Wait()
	}
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		buf, err := parbuffer.New(parbuffer.Config{Slots: 16, ProducerMax: 4, ConsumerMax: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer buf.Close()
		run(b, buf.Deposit, buf.Remove)
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		buf, err := buffer.New(16)
		if err != nil {
			b.Fatal(err)
		}
		defer buf.Close()
		run(b, buf.Deposit, buf.Remove)
	})
}

// BenchmarkE6NestedCalls measures the full X.P -> Y.Q -> X.R chain.
func BenchmarkE6NestedCalls(b *testing.B) {
	b.ReportAllocs()
	pair, err := crossobj.New()
	if err != nil {
		b.Fatal(err)
	}
	defer pair.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pair.CallP(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7PoolModes measures call latency under each process-
// provisioning strategy (§3).
func BenchmarkE7PoolModes(b *testing.B) {
	configs := []struct {
		name    string
		mode    sched.Mode
		workers int
	}{
		{"spawn", sched.ModeSpawn, 0},
		{"one-to-one", sched.ModeOneToOne, 0},
		{"pooled-8", sched.ModePooled, 8},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			obj, err := alps.New("Service",
				alps.WithEntry(alps.EntrySpec{Name: "P", Array: 16,
					Body: func(inv *alps.Invocation) error { return nil }}),
				alps.WithPool(cfg.mode, cfg.workers),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer obj.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := obj.Call("P"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8PriorityGate measures one deposit/remove pair with the
// manager wake-ordering gate on and off. A producer goroutine deposits
// while the benchmark goroutine removes, as E8 does: with two callers one
// finds the manager role busy and hands its call to the manager, which is
// where the gate acts. One caller alone would run every step itself.
func BenchmarkE8PriorityGate(b *testing.B) {
	for _, gate := range []bool{true, false} {
		b.Run(fmt.Sprintf("gate=%v", gate), func(b *testing.B) {
			b.ReportAllocs()
			buf, err := buffer.New(8, alps.WithPriorityGate(gate))
			if err != nil {
				b.Fatal(err)
			}
			defer buf.Close()
			b.ResetTimer()
			produced := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					if err := buf.Deposit(i); err != nil {
						produced <- err
						return
					}
				}
				produced <- nil
			}()
			for i := 0; i < b.N; i++ {
				if _, err := buf.Remove(); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-produced; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkE9PriorityGuards measures one seek through the pri-guard
// scheduler (no head-travel cost).
func BenchmarkE9PriorityGuards(b *testing.B) {
	b.ReportAllocs()
	s, err := diskhead.New(diskhead.Config{QueueMax: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tracks, err := workload.NewTracks(1, 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Seek(tracks.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10RemoteCall measures a remote call over TCP loopback against
// the same call made locally.
func BenchmarkE10RemoteCall(b *testing.B) {
	newEcho := func() (*alps.Object, error) {
		return alps.New("Echo",
			alps.WithEntry(alps.EntrySpec{Name: "P", Params: 1, Results: 1, Array: 8,
				Body: func(inv *alps.Invocation) error {
					inv.Return(inv.Param(0))
					return nil
				}}),
		)
	}
	b.Run("local", func(b *testing.B) {
		b.ReportAllocs()
		obj, err := newEcho()
		if err != nil {
			b.Fatal(err)
		}
		defer obj.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := obj.Call("P", i); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remote-tcp", func(b *testing.B) {
		b.ReportAllocs()
		obj, err := newEcho()
		if err != nil {
			b.Fatal(err)
		}
		defer obj.Close()
		node := rpc.NewNode("bench")
		if err := node.Publish(obj); err != nil {
			b.Fatal(err)
		}
		addr, err := node.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		rem, err := rpc.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer rem.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rem.Call("Echo", "P", i); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkManagerPrimitives is the micro-ablation: the cost of each layer
// of the manager protocol, from a bare unmanaged call to full
// accept/start/await/finish with interception.
func BenchmarkManagerPrimitives(b *testing.B) {
	body := func(inv *alps.Invocation) error {
		inv.Return(inv.Param(0))
		return nil
	}
	b.Run("unmanaged-call", func(b *testing.B) {
		b.ReportAllocs()
		obj, err := alps.New("X",
			alps.WithEntry(alps.EntrySpec{Name: "P", Params: 1, Results: 1, Body: body}))
		if err != nil {
			b.Fatal(err)
		}
		defer obj.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := obj.Call("P", i); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("managed-execute", func(b *testing.B) {
		b.ReportAllocs()
		obj, err := alps.New("X",
			alps.WithEntry(alps.EntrySpec{Name: "P", Params: 1, Results: 1, Body: body}),
			alps.WithManager(func(m *alps.Mgr) {
				for {
					a, err := m.Accept("P")
					if err != nil {
						return
					}
					if _, err := m.Execute(a); err != nil {
						return
					}
				}
			}, alps.Intercept("P")),
		)
		if err != nil {
			b.Fatal(err)
		}
		defer obj.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := obj.Call("P", i); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Multi-client scaling for the full accept/execute protocol: with the
	// batched intake mailbox the manager drains all concurrent arrivals in
	// one wakeup, so per-op cost should fall as clients are added, not rise.
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("managed-execute/clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			obj, err := alps.New("X",
				alps.WithEntry(alps.EntrySpec{Name: "P", Params: 1, Results: 1, Array: 64, Body: body}),
				alps.WithManager(func(m *alps.Mgr) {
					for {
						a, err := m.Accept("P")
						if err != nil {
							return
						}
						if _, err := m.Execute(a); err != nil {
							return
						}
					}
				}, alps.Intercept("P")),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer obj.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/clients + 1
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := obj.Call("P", i); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
	b.Run("managed-combining", func(b *testing.B) {
		b.ReportAllocs()
		obj, err := alps.New("X",
			alps.WithEntry(alps.EntrySpec{Name: "P", Params: 1, Results: 1, Body: body}),
			alps.WithManager(func(m *alps.Mgr) {
				for {
					a, err := m.Accept("P")
					if err != nil {
						return
					}
					if err := m.FinishAccepted(a, a.Params[0]); err != nil {
						return
					}
				}
			}, alps.InterceptPR("P", 1, 1)),
		)
		if err != nil {
			b.Fatal(err)
		}
		defer obj.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := obj.Call("P", i); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChannel measures the asynchronous channel primitives.
func BenchmarkChannel(b *testing.B) {
	b.Run("send-recv", func(b *testing.B) {
		b.ReportAllocs()
		c := alps.NewChan("bench")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Send(i); err != nil {
				b.Fatal(err)
			}
			if _, ok := c.TryRecv(); !ok {
				b.Fatal("lost message")
			}
		}
	})
	b.Run("go-chan-reference", func(b *testing.B) {
		b.ReportAllocs()
		c := make(chan int, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c <- i
			<-c
		}
	})
}

// BenchmarkGuardScanWidth demonstrates the §3 implementation issue solved
// by the attached/ready index lists: the cost of a managed call must not
// grow with the hidden procedure array size N, even though the guard is
// logically "(i:1..N) accept P[i]".
func BenchmarkGuardScanWidth(b *testing.B) {
	for _, n := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("array-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			obj, err := alps.New("Wide",
				alps.WithEntry(alps.EntrySpec{Name: "P", Params: 1, Results: 1, Array: n,
					Body: func(inv *alps.Invocation) error {
						inv.Return(inv.Param(0))
						return nil
					}}),
				alps.WithManager(func(m *alps.Mgr) {
					_ = m.Loop(
						alps.OnAccept("P", func(a *alps.Accepted) {
							if _, err := m.Execute(a); err != nil {
								return
							}
						}),
					)
				}, alps.Intercept("P")),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer obj.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := obj.Call("P", i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGuardScanDeep is the deep counterpart of GuardScanWidth: the
// Sched16 fixture keeps ~1000 calls pending across 16 guarded entries, so
// one committed call costs one selection over entries x pending — a when
// per pending call and a pri per eligible one. ns/op is the manager's
// scan-plus-commit time per call (the callers only queue).
func BenchmarkGuardScanDeep(b *testing.B) {
	b.ReportAllocs()
	s, err := experiments.NewSched16()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	bad, err := s.Run(int64(b.N))
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if bad != 0 {
		b.Fatalf("Sched16: %d grants violated a guard (negative=%d out-of-order=%d)", bad, s.Negative, s.OutOfOrder)
	}
}

// BenchmarkPolicies measures the per-call cost of the prebuilt manager
// policies relative to a raw managed execute.
func BenchmarkPolicies(b *testing.B) {
	body := func(inv *alps.Invocation) error { return nil }
	cases := []struct {
		name string
		mk   func() (func(*alps.Mgr), []alps.InterceptSpec)
	}{
		{"exclusive", func() (func(*alps.Mgr), []alps.InterceptSpec) { return policy.Exclusive("P") }},
		{"fifo", func() (func(*alps.Mgr), []alps.InterceptSpec) { return policy.FIFO("P") }},
		{"concurrent-4", func() (func(*alps.Mgr), []alps.InterceptSpec) {
			return policy.Concurrent(map[string]int{"P": 4})
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			mgr, icpts := tc.mk()
			obj, err := alps.New("X",
				alps.WithEntry(alps.EntrySpec{Name: "P", Array: 8, Body: body}),
				alps.WithManager(mgr, icpts...),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer obj.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := obj.Call("P"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPathExpr measures a call through a compiled path-expression
// manager (strict alternation of two entries).
func BenchmarkPathExpr(b *testing.B) {
	b.ReportAllocs()
	p, err := pathexpr.Compile("1:(a; b)")
	if err != nil {
		b.Fatal(err)
	}
	mgr, icpts := p.Manager()
	body := func(inv *alps.Invocation) error { return nil }
	obj, err := alps.New("X",
		alps.WithEntry(alps.EntrySpec{Name: "a", Array: 2, Body: body}),
		alps.WithEntry(alps.EntrySpec{Name: "b", Array: 2, Body: body}),
		alps.WithManager(mgr, icpts...),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer obj.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Call("a"); err != nil {
			b.Fatal(err)
		}
		if _, err := obj.Call("b"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimnetLink measures the simulated network's per-message
// overhead with zero configured latency.
func BenchmarkSimnetLink(b *testing.B) {
	b.ReportAllocs()
	network := simnet.New(simnet.Config{})
	lis, err := network.Listen("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			if _, err := conn.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	conn, err := network.Dial("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("ping")
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurability measures what the write-ahead call ledger costs a
// managed write (docs/DURABILITY.md): nothing when disabled (one nil
// check), an in-memory append when journaled without waiting (the
// rpc-hosted mode, where the ack sync pays the fsync), a full fsync per
// call when embedded locally with Wait:true, and — the point of group
// commit — a fraction of an fsync per call once concurrent writers share
// flushes.
func BenchmarkDurability(b *testing.B) {
	newDurableDB := func(b *testing.B, wait bool) *rwdb.DB {
		b.Helper()
		store, err := alps.OpenStore(b.TempDir(), alps.DurabilityOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = store.Close() })
		j := store.Journal("Database", alps.JournalOptions{Skip: rwdb.JournalSkip, Wait: wait})
		db, err := rwdb.New(rwdb.Config{ReadMax: 4, ObjOpts: []alps.Option{
			alps.WithObjectOptions(alps.ObjectOptions{Journal: j}),
		}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.Recover(db.Hooks()); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = db.Close() })
		return db
	}

	b.Run("write-no-journal", func(b *testing.B) {
		b.ReportAllocs()
		db, err := rwdb.New(rwdb.Config{ReadMax: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Write(i&31, i); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write-journal-buffered", func(b *testing.B) {
		b.ReportAllocs()
		db := newDurableDB(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Write(i&31, i); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write-journal-fsync", func(b *testing.B) {
		b.ReportAllocs()
		db := newDurableDB(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Write(i&31, i); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, writers := range []int{8, 64} {
		b.Run(fmt.Sprintf("write-journal-fsync/writers=%d", writers), func(b *testing.B) {
			b.ReportAllocs()
			db := newDurableDB(b, true)
			b.SetParallelism(writers)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					i++
					if err := db.Write(i&31, i); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
