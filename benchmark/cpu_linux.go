package main

import (
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// Two things a microsecond-scale open-loop measurement needs from the
// kernel on a small virtual machine. Both are Linux-only; elsewhere they do
// nothing and the generator lateness metrics show what that costs.

// yieldCPU lets any other runnable thread on this CPU run now.
//
// The open-loop pacer spins on the clock. What else wants its CPU is the
// kernel's own work for the sockets it writes to (loopback TCP delivers on
// the sender's CPU) and, on a machine with a single CPU, the server: the
// kernel queues a thread woken over loopback on the waker's CPU, and a
// pacer that never gives the CPU up makes it wait out a whole time slice —
// milliseconds that have nothing to do with the server. Yielding inside the
// spin hands the CPU over at once and costs the pacer only the microseconds
// the other thread runs.
func yieldCPU() { syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }

type cpuMask [16]uint64 // 1024 CPUs

func setAffinity(tid int, m *cpuMask) {
	// A thread that exits between the listing and the call is not an error.
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
}

func setAffinityAll(m *cpuMask) {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			setAffinity(tid, m)
		}
	}
}

// highestCPU returns the mask of the highest CPU in m (zero if m is empty).
func highestCPU(m *cpuMask) (one cpuMask) {
	for w := len(m) - 1; w >= 0; w-- {
		if m[w] != 0 {
			one[w] = 1 << (63 - bits.LeadingZeros64(m[w]))
			break
		}
	}
	return one
}

// splitCPUs gives the calling goroutine the highest CPU the process may use
// (interrupts are mostly routed to the lowest) and moves every other thread
// — the server's and the readers' — onto the next one, for the length of
// the open-loop phase; the returned func undoes both. With one CPU
// everything shares it.
//
// Left to the kernel, the placement differs from run to run: with the
// server's thread beside the spinning pacer a request is a hand-over on one
// CPU, on the other CPU it is a cross-CPU wake-up of a virtual CPU that may
// be halted, and the same commit measured a median of 10 µs on one run and
// 42 µs on the next. Fixing the placement fixes which of the two is
// measured. This one keeps the generator out of the server's way: the
// server has a CPU to itself and the rest of the client, the rate is a
// share of what that CPU sustains, and the pacer is late only when the host
// takes its CPU away. Throughput on all CPUs is Phase B's job.
//
// Threads born meanwhile are cloned from unlocked threads or the runtime's
// template thread, which LockOSThread starts before the masks are set, so
// they inherit the server's CPU; all are released at the end.
func splitCPUs() (serverCPU int, restore func()) {
	var all cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); e != 0 {
		return -1, func() {}
	}
	mine := highestCPU(&all)
	rest := all
	for w := range rest {
		rest[w] &^= mine[w]
	}
	theirs := highestCPU(&rest)
	if theirs == (cpuMask{}) {
		theirs = mine
	}
	runtime.LockOSThread()
	setAffinityAll(&theirs)
	setAffinity(0, &mine) // 0: the calling thread, which is now this goroutine's
	for w, bitsOf := range theirs {
		if bitsOf != 0 {
			serverCPU = 64*w + bits.TrailingZeros64(bitsOf)
		}
	}
	return serverCPU, func() {
		setAffinityAll(&all)
		runtime.UnlockOSThread()
	}
}

// cpuTicks reads one CPU's cumulative busy and total time from /proc/stat,
// in clock ticks (0, 0 if it cannot). Time stolen by the hypervisor counts
// as neither.
func cpuTicks(cpu int) (busy, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line) // cpuN user nice system idle iowait irq softirq steal ...
		if len(f) < 9 || f[0] != "cpu"+strconv.Itoa(cpu) {
			continue
		}
		for i, field := range f[1:8] { // steal left out: time the CPU was not there
			v, _ := strconv.ParseFloat(field, 64)
			total += v
			if i != 3 && i != 4 { // neither idle nor iowait
				busy += v
			}
		}
	}
	return busy, total
}
