package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask (up to 1024 CPUs).
type cpuMask [16]uint64

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// setAffinityAll binds every thread of the process to m. A thread the
// runtime starts later inherits the mask of the thread that starts it,
// and so does a child process, so the loop repeats until a pass over
// /proc/self/task finds no thread it has not set.
func setAffinityAll(m cpuMask) error {
	done := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := 0
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || done[tid] {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
				return fmt.Errorf("sched_setaffinity: %w", e)
			}
			done[tid] = true
			fresh++
		}
		if fresh == 0 {
			return nil
		}
	}
}

// pinOneCPU binds the process, and the reference kernel it starts, to
// the highest-numbered CPU it may run on. The virtual CPUs of a shared
// host run at different speeds from moment to moment, so the kernel only
// measures the speed the workload saw when both run on the same CPU. It
// returns the CPU and a function that restores the previous mask.
func pinOneCPU() (int, func(), error) {
	old, err := getAffinity()
	if err != nil {
		return -1, nil, err
	}
	cpu := -1
	for i := len(old)*64 - 1; i >= 0 && cpu < 0; i-- {
		if old[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return -1, nil, fmt.Errorf("empty CPU affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinityAll(one); err != nil {
		return -1, nil, err
	}
	return cpu, func() { setAffinityAll(old) }, nil
}
