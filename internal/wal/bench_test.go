package wal

import (
	"fmt"
	"sync"
	"testing"
)

// fabricAppend is the record shape the shard fabric journals per append.
func fabricAppend(i int) *Record {
	return &Record{Kind: KindOutcome, Object: "fabric", Entry: "append",
		Params: []any{"key-0042", "client-07", uint64(i), uint64(3), uint64(i)}}
}

// BenchmarkAppend is the cost of staging one record, never synced: the gob
// encode (outside mu) plus the copy into the segment buffer (under it; one
// write(2) per 64 KiB of them). parallel=4 has four goroutines contend for
// mu, so what moved out from under the lock shows.
func BenchmarkAppend(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprint("parallel=", par), func(b *testing.B) {
			l, _, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < par; g++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := l.Append(fabricAppend(i)); err != nil {
							b.Error(err)
							return
						}
					}
				}(b.N / par)
			}
			wg.Wait()
		})
	}
}

// BenchmarkGroupCommit is the group commit on a real disk: G goroutines each
// loop Append + WaitSynced, as G serving goroutines acknowledging durable
// calls do. records/fsync is the batch size the commit reaches; fsyncs/s
// shows the disk's own pace, which the pipelining does not change.
func BenchmarkGroupCommit(b *testing.B) {
	for _, g := range []int{1, 5, 16} {
		b.Run(fmt.Sprint("G=", g), func(b *testing.B) {
			m := &Metrics{}
			l, _, err := Open(b.TempDir(), Options{Metrics: m})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				n := b.N / g
				if w < b.N%g {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						lsn, err := l.Append(fabricAppend(i))
						if err == nil {
							err = l.WaitSynced(lsn)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			fsyncs := float64(m.Fsyncs.Value())
			b.ReportMetric(float64(b.N)/fsyncs, "records/fsync")
			b.ReportMetric(fsyncs/b.Elapsed().Seconds(), "fsyncs/s")
		})
	}
}
