//go:build !race

package replica

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The leader recounts its quorum on every AppendEntries ack. These tests pin
// that the recount allocates nothing: the match and confirmation vectors
// live in stack arrays. Race builds are excluded: the race runtime
// allocates on its own account.

// TestAdvanceCommitAllocsNothing: a 3-member leader's maybeAdvanceCommit
// allocates nothing, and still commits the quorum-th highest match index.
func TestAdvanceCommitAllocsNothing(t *testing.T) {
	r := &Replica{role: Leader, term: 1, log: []entry{{Term: 1}, {Term: 1}, {Term: 1}}}
	r.applyCond = sync.NewCond(&r.mu)
	r.peers = []*peer{{r: r, id: "F1", matchIndex: 2}, {r: r, id: "F2", matchIndex: 1}}
	if avg := testing.AllocsPerRun(100, r.maybeAdvanceCommit); avg != 0 {
		t.Errorf("maybeAdvanceCommit: %.1f allocs per call, want 0", avg)
	}
	if r.commitIndex != 2 {
		t.Errorf("commitIndex = %d, want 2 (matches 3, 2, 1)", r.commitIndex)
	}
}

// TestQuorumCountsDoNotEscape asks the compiler's escape analysis
// (go build -gcflags=-m) about maybeAdvanceCommit and advanceReads: nothing
// in either may escape or move to the heap.
func TestQuorumCountsDoNotEscape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []struct{ file, decl string }{
		{"raft.go", "func (r *Replica) maybeAdvanceCommit() {"},
		{"replica.go", "func (r *Replica) advanceReads() {"},
	} {
		first, last := funcLines(t, fn.file, fn.decl)
		for _, line := range strings.Split(string(out), "\n") {
			rest, ok := strings.CutPrefix(line, "./"+fn.file+":")
			if !ok || !(strings.Contains(line, "escapes to heap") || strings.Contains(line, "moved to heap")) {
				continue
			}
			n, _ := strconv.Atoi(rest[:strings.IndexByte(rest, ':')])
			if n >= first && n <= last {
				t.Errorf("%s", line)
			}
		}
	}
}

// funcLines returns the first and last line of the function declared by
// decl in file: from decl to the first line that is a lone "}".
func funcLines(t *testing.T, file, decl string) (first, last int) {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(src), "\n") {
		switch {
		case line == decl:
			first = i + 1
		case first > 0 && line == "}":
			return first, i + 1
		}
	}
	t.Fatalf("%s: no %q", file, decl)
	return 0, 0
}
