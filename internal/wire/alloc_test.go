//go:build !race

package wire

import (
	"bufio"
	"testing"
)

// Allocation ceilings for steady-state decode, at the layer that owns them.
// A Decoder streams the same frame over and over, so every string the frame
// carries is a cache hit; what remains is what the caller keeps. Race builds
// are excluded: the race runtime allocates on its own account.

func decodeAllocs(t *testing.T, f *Frame) float64 {
	t.Helper()
	table := DefaultTable.Snapshot()
	dec := NewDecoder(bufio.NewReader(&loopReader{data: mustEncode(t, f, table)}), table)
	var got Frame
	if err := dec.Decode(&got); err != nil { // fill the cache
		t.Fatal(err)
	}
	return testing.AllocsPerRun(200, func() {
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsDecodeResponse: the results slice and the count, which is too
// large for the runtime's preallocated small integers. The status, the
// member, the small epoch and the empty info cost nothing; neither does the
// arena, which no value aliases.
func TestAllocsDecodeResponse(t *testing.T) {
	if avg := decodeAllocs(t, fabricAnswer()); avg > 2 {
		t.Errorf("fabric answer decode: %.1f allocs/frame, want <= 2", avg)
	}
}

// TestAllocsDecodeRequest: benchFrame's params slice, its float and []byte
// boxes, and a fresh arena, since the []byte value keeps the last one.
// "payload" and the header identifiers come from the cache.
func TestAllocsDecodeRequest(t *testing.T) {
	if avg := decodeAllocs(t, benchFrame()); avg > 4 {
		t.Errorf("request decode: %.1f allocs/frame, want <= 4", avg)
	}
}
