package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or 0
// where /proc does not provide it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// llcMB is the size of the largest CPU cache sysfs reports for cpu0, or
// 0 when unknown. The codec replay states it next to its array size.
func llcMB() float64 {
	largest := 0.0
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(string(data)), "K"), 64)
		if mb := kb * 1024 / 1e6; mb > largest {
			largest = mb
		}
	}
	return largest
}
