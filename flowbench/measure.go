package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes float64 // heap bytes allocated
	gcCycles   float64 // completed GC cycles
	gcPauseS   float64 // stop-the-world GC pause time
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		gcPauseS:   histogramSum(s[2].Value.Float64Histogram()),
	}
}

// histogramSum estimates the total of a runtime histogram from its bucket
// midpoints (the runtime exports pause times only as a histogram).
func histogramSum(h *metrics.Float64Histogram) float64 {
	total := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		total += float64(n) * (lo + hi) / 2
	}
	return total
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: a.allocBytes + b.allocBytes,
		gcCycles:   a.gcCycles + b.gcCycles,
		gcPauseS:   a.gcPauseS + b.gcPauseS,
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcPauseS:   a.gcPauseS - b.gcPauseS,
	}
}

// resetPeakRSS resets the kernel's record of this process's RSS high-water
// mark to the current RSS (Linux 4.0 and later).
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the process's high-water resident set (VmHWM) in MiB.
func peakRSSMB() (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, false
		}
		return kb / 1024, true
	}
	return 0, false
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
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
