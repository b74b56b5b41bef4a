package replica

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// FuzzReplicaCheckpoint: arbitrary bytes reaching the store checkpoint's
// Restore hook, or the catch-up snapshot decoder (InstallSnapshot and
// recovery), are accepted or refused with wire.ErrMalformed; they never
// panic. A checkpoint that was accepted re-encodes to the same state.
func FuzzReplicaCheckpoint(f *testing.F) {
	snap, err := (&snapshotPayload{LastIndex: 4, LastTerm: 2, State: []byte("state"),
		Sessions: []rpc.AckEntry{{Client: "c", Seq: 1, Results: []any{"ok"}}, {Client: "d", Seq: 2, ErrMsg: "no", ErrKind: 1}}}).encode()
	if err != nil {
		f.Fatal(err)
	}
	r := &Replica{term: 3, votedFor: "B", snapIndex: 4, snapTerm: 2, snapBlob: snap,
		log: []entry{{Term: 3, Entry: "Put", Client: "c", Seq: 2, Params: []any{"k", "v"}}, {Term: 3, Entry: "Del"}}}
	cp, err := r.checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	empty, err := (&Replica{}).checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{cp, cp[:len(cp)/2], empty, snap, snap[:len(snap)-1], {}, {0x2b, 0xff, 0x81, 0x03}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := decodeSnapshotPayload(data); err != nil && !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("decodeSnapshotPayload: untyped error %v", err)
		}
		var r Replica
		if err := r.restoreCheckpoint(data); err != nil {
			if !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("restoreCheckpoint: untyped error %v", err)
			}
			return
		}
		blob, err := r.checkpoint()
		if err != nil {
			t.Fatalf("checkpoint after an accepted restore: %v", err)
		}
		var r2 Replica
		if err := r2.restoreCheckpoint(blob); err != nil {
			t.Fatalf("restore of a re-encoded checkpoint: %v", err)
		}
		state := func(r *Replica) string {
			return fmt.Sprint(r.term, r.votedFor, r.snapIndex, r.snapTerm, r.snapBlob, r.log)
		}
		if state(&r) != state(&r2) {
			t.Fatalf("round trip changed the state:\n%s\n%s", state(&r), state(&r2))
		}
	})
}
