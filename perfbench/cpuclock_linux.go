package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Clock ids of clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error()) // both clocks exist on every Linux the toolchain supports
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the CPU time of the calling OS thread. Callers lock their
// goroutine to its thread around the operations they time.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU is the CPU time of all the process's threads, the Go
// runtime's garbage collector included.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }
