package shard_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// BenchmarkShardGroup measures group throughput with Execute-serialized
// 100µs bodies at 64 clients — the E14 shape as a micro, so the 1→8 shard
// scaling factor has a go-native number.
func BenchmarkShardGroup(b *testing.B) {
	const (
		bodyCost = 100 * time.Microsecond
		clients  = 64
	)
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d-clients=%d", shards, clients), func(b *testing.B) {
			b.ReportAllocs()
			g, err := shard.New("Service", shards,
				func(i int, name string) (*core.Object, error) {
					return core.New(name,
						core.WithEntry(core.EntrySpec{Name: "P", Params: 1, Results: 1,
							Body: func(inv *core.Invocation) error {
								time.Sleep(bodyCost)
								inv.Return(inv.Param(0))
								return nil
							}}),
						core.WithManager(func(m *core.Mgr) {
							_ = m.Loop(core.OnAccept("P", func(a *core.Accepted) {
								_, _ = m.Execute(a)
							}))
						}, core.Intercept("P")),
					)
				})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/clients + 1
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := g.Call("P", i); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
