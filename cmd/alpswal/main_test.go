package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// dirImage is a directory's names and contents.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string]string)
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = string(data)
	}
	return img
}

// TestDumpLeavesEvidenceUntouched: the directory a dump inspects — here one
// with a checkpoint, a torn tail and an unpublished snapshot, all of which
// wal.Open would repair — is byte-identical afterwards, and the dump shows
// the snapshot's participants next to the records above its floor.
func TestDumpLeavesEvidenceUntouched(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.OpenStore(dir, wal.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j := st.Journal("!raft:KV", wal.JournalOptions{})
	if _, err := j.Recover(wal.RecoverHooks{
		Snapshot: func() ([]byte, error) { return []byte("checkpoint"), nil },
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := j.Append("state", []any{uint64(i), "B"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append("append", []any{uint64(7), []byte("xyz")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no segments written")
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 1, 2, 3}); err != nil { // a frame cut short
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000009.db.tmp"), []byte("half"), 0o600); err != nil {
		t.Fatal(err)
	}

	before := dirImage(t, dir)
	var out bytes.Buffer
	if err := dump(&out, dir, ""); err != nil {
		t.Fatal(err)
	}
	after := dirImage(t, dir)
	if len(after) != len(before) {
		t.Fatalf("dump changed the directory listing: %d files before, %d after", len(before), len(after))
	}
	for name, data := range before {
		if after[name] != data {
			t.Fatalf("dump modified %s (%dB before, %dB after)", name, len(data), len(after[name]))
		}
	}
	for _, want := range []string{
		"# snapshot floor lsn=3 participant blob bytes=map[!raft:KV:10]",
		"# torn tail: 7 bytes",
		"lsn=4 kind=1 obj=!raft:KV entry=append p0=7 p1=3B",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dump lacks %q:\n%s", want, out.String())
		}
	}
}
