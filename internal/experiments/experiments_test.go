package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestAllHaveUniqueIDsAndTitles(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 14 {
		t.Fatalf("have %d experiments, want 14", len(seen))
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("E3"); !ok {
		t.Fatal("Find(E3) failed")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("Find(E99) succeeded")
	}
}

// TestEveryExperimentRunsQuick executes the whole suite at Quick scale —
// the integration test of the entire system: core, channels, sched, rpc,
// all example objects and all baselines working together.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			table, err := e.Run(Quick)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if table.Rows() == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			out := table.String()
			if !strings.Contains(out, e.ID+":") {
				t.Errorf("%s: table title %q missing experiment id", e.ID, out)
			}
			t.Logf("\n%s", out)
		})
	}
}

// TestE3ShapeCombiningWins asserts the headline combining shape numerically:
// under Zipf skew, executions must be well below requests.
func TestE3ShapeCombiningWins(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	table, err := E3Combining(Quick)
	if err != nil {
		t.Fatal(err)
	}
	out := table.String()
	// Parse the alps-combine row at skew 1.1 and confirm executions < requests.
	var executions int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "alps-combine") && strings.Contains(line, "zipf1.1-16") {
			fields := strings.Fields(line)
			// impl, skew, dup, executions, ...
			v, err := strconv.Atoi(fields[3])
			if err != nil {
				t.Fatalf("cannot parse executions from %q", line)
			}
			executions = v
		}
	}
	if executions == 0 {
		t.Fatalf("no alps-combine skew-1.1 row in:\n%s", out)
	}
	if executions >= 240 {
		t.Fatalf("combining executed %d searches for 240 requests; no win:\n%s", executions, out)
	}
}

// TestE6ShapeDeadlock asserts the monitor baseline really deadlocks while
// the manager version completes.
func TestE6ShapeDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	table, err := E6NestedCalls(Quick)
	if err != nil {
		t.Fatal(err)
	}
	out := table.String()
	if !strings.Contains(out, "DEADLOCK") {
		t.Fatalf("monitor baseline did not deadlock:\n%s", out)
	}
	if !strings.Contains(out, "alps-manager") || !strings.Contains(out, "completed") {
		t.Fatalf("manager version did not complete:\n%s", out)
	}
}

// TestE9ShapeSSTF asserts the pri-guard schedule beats FIFO.
func TestE9ShapeSSTF(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	table, err := E9DiskSchedule(Quick)
	if err != nil {
		t.Fatal(err)
	}
	out := table.String()
	firstInt := func(line string) int64 {
		for _, f := range strings.Fields(line) {
			if v, err := strconv.ParseInt(f, 10, 64); err == nil {
				return v
			}
		}
		return 0
	}
	var fifo, online int64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "FIFO") {
			fifo = firstInt(line)
		}
		if strings.HasPrefix(line, "alps pri-guard SSTF") {
			online = firstInt(line)
		}
	}
	if fifo == 0 || online == 0 {
		t.Fatalf("could not parse table:\n%s", out)
	}
	if online*2 > fifo {
		t.Fatalf("online SSTF travel %d not clearly below FIFO %d:\n%s", online, fifo, out)
	}
}

// TestSched16RespectsGuards runs the deep guard-scan fixture briefly: every
// grant must satisfy its when (free never negative) and its pri (no grant
// overtakes an older call of its own class), and every caller must wind down.
func TestSched16RespectsGuards(t *testing.T) {
	s, err := NewSched16()
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d grants drove free negative, %d overtook an older call of their class", s.Negative, s.OutOfOrder)
	}
}
