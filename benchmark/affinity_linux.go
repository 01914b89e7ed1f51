package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask of up to 1024 CPUs.
type cpuSet [16]uint64

func getAffinity() (cpuSet, error) {
	var m cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return m, errno
	}
	return m, nil
}

// setAffinity confines every thread of the process to m. Threads
// created afterwards inherit the mask of the thread that creates them;
// the second pass catches those born during the first.
func setAffinity(m cpuSet) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}

// pinToOneCPU confines the whole process to the lowest CPU it is
// allowed on and runs the Go scheduler with a single P. Client and
// nodes share one process, so where the kernel puts their threads
// decides the numbers: on one CPU a hand-over is a context switch,
// across two it is an inter-processor interrupt and a wake-up, about
// 6 µs more per hop on this host, and the kernel changes its mind every
// few hundred milliseconds. README.md, design rule 1, has the
// measurements. If the mask cannot be set the run goes on unpinned and
// says so.
func pinToOneCPU() {
	all, err := getAffinity()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: not pinned to one CPU:", err)
		return
	}
	var one cpuSet
	for i, w := range all {
		if w != 0 {
			one[i] = 1 << uint(bits.TrailingZeros64(w))
			break
		}
	}
	if err := setAffinity(one); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: not pinned to one CPU:", err)
		return
	}
	runtime.GOMAXPROCS(1)
}
