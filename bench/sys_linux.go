package main

import (
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// preciseSleeper prepares the calling goroutine to keep an open-loop clock.
// time.Sleep is no use for that: an idle Go scheduler sleeps in epoll_wait,
// whose timeout is in whole milliseconds, so arrivals would come in 1 ms
// bursts. The dispatcher instead pins itself to an OS thread, sets the
// thread's timer slack to the minimum and sleeps in nanosleep(2), which on
// this kernel overshoots by ~15 µs. The returned function undoes the pin.
func preciseSleeper() (unlock func()) {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: the default slack only makes lateness larger, and lateness is reported
	return runtime.UnlockOSThread
}

func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up is caught by the caller's clock check
}

// dieWithParent makes the kernel SIGKILL the child when this process dies,
// so that not even a crash of the generator leaves a daemon behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
