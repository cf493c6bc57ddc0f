package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// fineTimerSlack lets the calling thread's sleeps end within a
// microsecond of their deadline instead of the default 50µs. Call it
// on a locked thread.
func fineTimerSlack() {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks the thread in nanosleep until t. The runtime's own
// timers wake up to a millisecond late when the process is idle, which
// an open-loop schedule would count as latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) loops
	}
}

// cpuTicks reads the machine's CPU time counters from /proc/stat: the
// ticks stolen by the hypervisor for other guests, and all ticks, summed
// over CPUs. ok is false where they cannot be read.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}
