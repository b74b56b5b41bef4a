package e2e

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestHarnessReservesDistinctPorts: a reserved port stays bound by its
// reservation, so one run never hands the same port out twice.
func TestHarnessReservesDistinctPorts(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		addr := reservePort(t).Addr().String()
		if seen[addr] {
			t.Fatalf("reservation %d: %s handed out twice", i, addr)
		}
		seen[addr] = true
	}
}

// TestHarnessBindFailureNamesMember: a member whose alpsd cannot bind fails
// the run at setup, and the failure names the member.
func TestHarnessBindFailureNamesMember(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs alpsd; skipped with -short")
	}
	binaries(t)
	taken := reservePort(t)
	dir := t.TempDir()
	n := &procNode{
		id:      "n9",
		dataDir: dir,
		logPath: filepath.Join(dir, "n9.log"),
		px:      newProxy(reservePort(t)),
		args:    []string{"-addr", taken.Addr().String()},
	}
	t.Cleanup(n.px.Close)
	n.start(t)
	t.Cleanup(n.kill)
	_, err := n.boundAddr(time.Now().Add(30 * time.Second))
	if err == nil || !strings.Contains(err.Error(), "member n9: alpsd exited before listening") {
		t.Fatalf("bind failure reported as %v, want it to name member n9", err)
	}
}
