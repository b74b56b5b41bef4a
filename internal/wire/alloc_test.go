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

// TestAllocsDecodeSetMates: header names that hash to one set of the
// string cache all stay cached, so a stream that alternates between them
// decodes without allocating. The two client IDs are ones a Remote drew at
// random: each shares its set with a name of the echo call it makes (the
// object "Echo", the entry "P"), and in a direct-mapped cache each pair
// evicted each other on every frame.
func TestAllocsDecodeSetMates(t *testing.T) {
	const idEcho, idP = "e6d5c63adc8c3c1a", "e3779b97f4a7c150"
	if strSet([]byte(idEcho)) != strSet([]byte("Echo")) || strSet([]byte(idP)) != strSet([]byte("P")) {
		t.Fatal("the client IDs no longer share a set with the names they are paired with")
	}
	table := DefaultTable.Snapshot()
	var stream []byte
	for _, id := range []string{idEcho, idP} {
		stream = append(stream, mustEncode(t, &Frame{Kind: KindRequest, ID: 1, Object: "Echo", Entry: "P", Client: id}, table)...)
	}
	dec := NewDecoder(bufio.NewReader(&loopReader{data: stream}), table)
	var got Frame
	decode := func() {
		for i := 0; i < 2; i++ {
			if err := dec.Decode(&got); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode() // fill the cache
	if avg := testing.AllocsPerRun(200, decode); avg != 0 {
		t.Errorf("alternating set mates: %.1f allocs per frame pair, want 0", avg)
	}
}
