package main

import (
	"syscall"
	"testing"
)

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t 1234567 kB\nVmHWM:\t  589412 kB\nVmRSS:\t  201000 kB\n"
	kb, err := parseVmHWM(status)
	if err != nil || kb != 589412 {
		t.Fatalf("parseVmHWM = %d, %v; want 589412", kb, err)
	}
	for _, bad := range []string{"VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
}

func TestParseLoadAndSteal(t *testing.T) {
	if v, err := parseLoad1("0.52 0.61 0.70 1/123 4567\n"); err != nil || v != 0.52 {
		t.Errorf("parseLoad1 = %v, %v", v, err)
	}
	stat := "cpu  100 0 50 9000 10 0 3 77 0 0\ncpu0 50 0 25 4500 5 0 1 40 0 0\n"
	if v, err := parseSteal(stat); err != nil || v != 77 {
		t.Errorf("parseSteal = %v, %v; want 77", v, err)
	}
	if _, err := parseSteal("cpu  1 2 3\n"); err == nil {
		t.Error("parseSteal accepted a short cpu line")
	}
}

func TestRusageCPU(t *testing.T) {
	ru := syscall.Rusage{
		Utime: syscall.Timeval{Sec: 3, Usec: 250000},
		Stime: syscall.Timeval{Sec: 1, Usec: 500000},
	}
	if got := rusageCPU(ru); got != 4.75 {
		t.Errorf("rusageCPU = %v, want 4.75", got)
	}
}
