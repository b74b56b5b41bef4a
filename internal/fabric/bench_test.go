package fabric

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/wal"
)

// BenchmarkHostAppendDurable is one member's durable append path on a real
// disk, without the network: 16 serving goroutines, each appending to a key
// of its own (four shards). records/fsync is the batch the node's group
// commit reaches when the shard managers stage and the callers wait.
func BenchmarkHostAppendDurable(b *testing.B) {
	const callers = 16
	m := &wal.Metrics{}
	store, err := wal.OpenStore(b.TempDir(), wal.StoreOptions{SnapshotEvery: standaloneSnapshotEvery, Metrics: m})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	h, err := NewHost(HostOptions{ID: "solo", Spec: specFor(0, map[string]string{"solo": "127.0.0.1:1"}), Store: store})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	ctx := context.Background()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		n := b.N / callers
		if c < b.N%callers {
			n++
		}
		wg.Add(1)
		go func(key, client string, n int) {
			defer wg.Done()
			for seq := 0; seq < n; seq++ {
				res, err := h.CallCtx(ctx, "Append", key, client, uint64(seq), []byte(nil))
				if err != nil || res[0] != statusOK {
					b.Errorf("append %s/%d: %v, %v", key, seq, res, err)
					return
				}
			}
		}(keyName("bench", c), fmt.Sprint("c", c), n)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/float64(m.Fsyncs.Value()), "records/fsync")
}
