package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds returns the process's user+sys CPU time.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return rusageCPU(ru), nil
}

func rusageCPU(ru syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(b))
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// parseVmHWM reads the VmHWM line of /proc/<pid>/status, in kB.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line in status")
}

// parseLoad1 reads the 1-minute load average from /proc/loadavg.
func parseLoad1(loadavg string) (float64, error) {
	f := strings.Fields(loadavg)
	if len(f) == 0 {
		return 0, fmt.Errorf("empty loadavg")
	}
	return strconv.ParseFloat(f[0], 64)
}

// parseSteal reads the aggregate CPU steal ticks (the eighth value of
// the "cpu" line) from /proc/stat.
func parseSteal(stat string) (int64, error) {
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, fmt.Errorf("short cpu line %q", line)
		}
		return strconv.ParseInt(f[8], 10, 64)
	}
	return 0, fmt.Errorf("no cpu line in stat")
}

// A hostSample is the box's load at one instant. Fields are -1 when
// the kernel does not expose them.
type hostSample struct {
	Load1      float64 `json:"load1"`
	StealTicks int64   `json:"steal_ticks"`
}

func sampleHost() hostSample {
	h := hostSample{Load1: -1, StealTicks: -1}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if v, err := parseLoad1(string(b)); err == nil {
			h.Load1 = v
		}
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		if v, err := parseSteal(string(b)); err == nil {
			h.StealTicks = v
		}
	}
	return h
}

// envRecord describes the box a run measured on, so that a noisy
// sample can be traced to the host rather than to the program.
type envRecord struct {
	GOMAXPROCS int        `json:"gomaxprocs"`
	NumCPU     int        `json:"num_cpu"`
	GoVersion  string     `json:"go_version"`
	Start      hostSample `json:"start"`
	End        hostSample `json:"end"`
}

func newEnvRecord() envRecord {
	return envRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Start:      sampleHost(),
	}
}
