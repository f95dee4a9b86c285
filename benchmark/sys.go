package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// allocSnap is the process's cumulative heap allocation counters.
type allocSnap struct {
	objects, bytes uint64
}

func readAllocs() allocSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocSnap{objects: ms.Mallocs, bytes: ms.TotalAlloc}
}

// since returns the allocations made after a.
func (a allocSnap) since() allocSnap {
	b := readAllocs()
	return allocSnap{objects: b.objects - a.objects, bytes: b.bytes - a.bytes}
}

// peakRSSMB returns the process's peak resident set size in MiB, read
// from /proc/self/status (VmHWM). Where that file is missing it falls
// back to the memory the Go runtime has obtained from the system.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuSeconds returns the process's user and system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealTicks returns the host's cumulative steal time from /proc/stat,
// in clock ticks; 0 where that is not available.
func stealTicks() int {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.Atoi(f[8])
	return v
}
