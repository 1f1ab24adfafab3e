package main

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time the whole process (daemon, clients and
// benchmark alike) has consumed so far. Time the host steals from the
// virtual CPUs is not charged to the process, which is why the gated
// rates and tails are taken per CPU time rather than per wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
