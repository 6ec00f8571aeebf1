package main

import (
	"bufio"
	"errors"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailQuantile is the highest of the standard percentiles p99.9, p99, p95
// and p90 that has at least ten of n samples beyond it, or the median for
// runs too short to have a tail. A fixed ladder keeps runs of similar length
// on the same percentile.
func tailQuantile(n int) float64 {
	for _, permille := range []int{999, 990, 950, 900} {
		if n*(1000-permille) >= 10*1000 {
			return float64(permille) / 1000
		}
	}
	return 0.5
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts a slice of durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// provenance records the conditions a run was measured under: on a shared
// host a number is only comparable alongside its host and its CPU steal.
type provenance struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	StealS     float64 `json:"steal_s"`
	// Generator lateness of the open-loop workload (dispatch minus due time).
	LateP50Ms float64 `json:"generator_late_p50_ms,omitempty"`
	LateMaxMs float64 `json:"generator_late_max_ms,omitempty"`
}

func hostProvenance() provenance {
	return provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// clockTicks is USER_HZ, the unit of /proc CPU times (100 on every Linux
// ABI Go supports without cgo).
const clockTicks = 100

// stealSeconds reads the host-wide CPU steal time from /proc/stat.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / clockTicks
}

// procCPUSeconds returns utime+stime of pid from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// procHWMMB returns the peak resident set (VmHWM) of pid in MiB.
func procHWMMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
