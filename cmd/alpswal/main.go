// alpswal dumps a write-ahead journal directory as text, one record per
// line, in LSN order. It exists for post-mortem forensics on the e2e
// chaos harness's per-node data dirs: when the oracle reports a
// divergence, the journals are the ground truth for which node executed,
// extracted, installed or forgot what, and in which order.
//
// The dump never edits the evidence: wal.Open repairs what it opens (cuts a
// torn tail, deletes stray snapshots, creates a segment), so it runs on a
// private copy of DIR's files (its segments, snapshots and format marker),
// removed on exit.
//
//	alpswal [-grep substr] DIR
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/wal"
)

func main() {
	grep := flag.String("grep", "", "only print records whose rendering contains this substring")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: alpswal [-grep substr] DIR")
		os.Exit(2)
	}
	if err := dump(os.Stdout, flag.Arg(0), *grep); err != nil {
		fmt.Fprintf(os.Stderr, "alpswal: %v\n", err)
		os.Exit(1)
	}
}

func dump(w io.Writer, dir, grep string) error {
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	scratch, err := os.MkdirTemp("", "alpswal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	for _, f := range files {
		if f.IsDir() || filepath.Ext(f.Name()) == ".tmp" {
			continue // a subdirectory or an unpublished snapshot
		}
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(scratch, f.Name()), data, 0o600)
		}
		if err != nil {
			return err
		}
	}
	log, recovered, err := wal.Open(scratch, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	if snap := recovered.Snapshot; snap != nil {
		sizes := make(map[string]int, len(snap.Objects)) // fmt prints maps in key order
		for name, blob := range snap.Objects {
			sizes[name] = len(blob)
		}
		fmt.Fprintf(w, "# snapshot floor lsn=%d participant blob bytes=%v\n", snap.LSN, sizes)
	}
	if recovered.TornBytes > 0 {
		fmt.Fprintf(w, "# torn tail: %d bytes (left in place)\n", recovered.TornBytes)
	}
	for _, rec := range recovered.Records {
		line := render(rec)
		if grep != "" && !strings.Contains(line, grep) {
			continue
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

func render(rec *wal.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lsn=%d kind=%d obj=%s entry=%s", rec.LSN, rec.Kind, rec.Object, rec.Entry)
	for i, p := range rec.Params {
		switch v := p.(type) {
		case []byte:
			fmt.Fprintf(&b, " p%d=%dB", i, len(v))
		default:
			fmt.Fprintf(&b, " p%d=%v", i, v)
		}
	}
	return b.String()
}
