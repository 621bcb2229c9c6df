package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The serve ladder runs with every core kept out of idle by a spinner
// process at SCHED_IDLE, the lowest scheduling class: any other runnable
// thread preempts it at once, so it takes no processor time the client or
// server wants. Without it, a hit's latency on a 2-core virtual machine
// was dominated by waking idle cores and varied 2× from run to run
// (0.55–1.3 ms p50 at the same rate); with it, it varied ±8%.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// startIdleSpinner starts the spinner process; stop kills it and waits.
func startIdleSpinner(env *phaseEnv) (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-phase", "spin", "-workload", env.workload, "-dir", env.dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		cmd.Process.Kill()
		cmd.Wait()
	}, nil
}

// runSpin busies one goroutine per core and keeps every thread of the
// process at SCHED_IDLE until it is killed.
func runSpin() error {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			for x := uint64(1); ; x = x*6364136223846793005 + 1 {
			}
		}()
	}
	for {
		if err := idleAllThreads(); err != nil {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// idleAllThreads moves every thread of this process to SCHED_IDLE (the
// policy is per thread, and the runtime may start threads at any time).
func idleAllThreads() error {
	tids, err := filepath.Glob("/proc/self/task/*")
	if err != nil {
		return err
	}
	var param struct{ priority int32 }
	for _, t := range tids {
		tid, err := strconv.Atoi(filepath.Base(t))
		if err != nil {
			continue
		}
		_, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedIdle,
			uintptr(unsafe.Pointer(&param)))
		if errno != 0 && errno != syscall.ESRCH {
			return errno
		}
	}
	return nil
}
