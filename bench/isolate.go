package main

import (
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) count() (n int) {
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

func getAffinity(tid int) (m cpuMask, ok bool) {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, errno == 0
}

func setAffinity(tid int, m cpuMask) {
	// Best effort: where the kernel refuses, the run goes on unpinned.
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
}

// others applies mask to every thread of the process but the caller's.
func others(self int, mask cpuMask) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil && tid != self {
			setAffinity(tid, mask)
		}
	}
}

// isolate runs fn on a CPU of its own: the calling goroutine is locked to
// its thread, that thread gets the last CPU the process may use, and
// every other thread gets the rest. An open-loop generator that ticks
// faster than a sleep can wake must spin, and a spinning thread that
// shares a CPU with a broker thread makes the kernel's time slices, not
// the brokers, set the tail: the generator is a component apart from the
// system under test, so it gets a core apart. Threads started meanwhile
// inherit the others' mask (the Go runtime clones threads for a locked
// goroutine from a template thread, not from the locked one). With one
// CPU, or where affinity cannot be set, fn just runs.
func isolate(fn func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	self := syscall.Gettid()
	all, ok := getAffinity(self)
	if !ok || all.count() < 2 {
		fn()
		return
	}
	var mine cpuMask
	rest := all
	for w := len(all) - 1; w >= 0; w-- {
		if all[w] != 0 {
			bit := uint64(1) << (63 - bits.LeadingZeros64(all[w]))
			mine[w], rest[w] = bit, all[w]&^bit
			break
		}
	}
	others(self, rest)
	setAffinity(self, mine)
	defer func() {
		setAffinity(self, all)
		others(self, all)
	}()
	fn()
}
