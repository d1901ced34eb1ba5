package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU restricts every thread of this process — and so every child
// it starts from then on — to the highest-numbered CPU it is allowed on,
// and returns that CPU.
//
// On a two-vCPU guest a request that crosses processes wakes a thread on
// the other, halted, vCPU, and that wake-up is a trip through the
// hypervisor whose cost depends on the host. Measured on the seed:
// crawl-ring read p50 0.88–1.30 ms with the processes free to spread and
// 0.68–0.84 ms with everything on one CPU, and its run-to-run spread fell
// by half. One caller in a closed loop has nothing to run in parallel, so
// the second CPU bought only that noise.
func pinToOneCPU() (int, error) {
	var mask [128]byte
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := len(mask)*8 - 1; i >= 0; i-- {
		if mask[i/8]&(1<<(i%8)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return 0, errors.New("sched_getaffinity: empty CPU mask")
	}
	mask = [128]byte{}
	mask[cpu/8] = 1 << (cpu % 8)
	// A thread created while the list is read inherits its creator's mask,
	// which may not be narrowed yet; a second pass catches it.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread exited between the listing and the call.
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), uintptr(len(mask)), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 && errno != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return cpu, nil
}
