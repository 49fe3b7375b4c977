package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
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

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB. Where
// /proc is missing it falls back to the memory the Go runtime obtained from
// the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
			if fields := strings.Fields(rest); ok && len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// resetPeakRSS restarts the kernel's peak resident set size count, so the
// next peakRSSMB covers only what ran in between. Where that is not
// possible the peak stays the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// allocSample is the process's allocation and GC CPU counters at one moment;
// the difference of two samples is what ran in between.
type allocSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleAllocs() allocSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: cpuMetrics[0]}, {Name: cpuMetrics[1]}}
	metrics.Read(s)
	a := allocSample{mallocs: m.Mallocs, bytes: m.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		a.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		a.allCPU = s[1].Value.Float64()
	}
	return a
}

// since returns what ran between an earlier sample and a.
func (a allocSample) since(from allocSample) allocSample {
	return allocSample{a.mallocs - from.mallocs, a.bytes - from.bytes, a.gcCPU - from.gcCPU, a.allCPU - from.allCPU}
}

func (a allocSample) plus(b allocSample) allocSample {
	return allocSample{a.mallocs + b.mallocs, a.bytes + b.bytes, a.gcCPU + b.gcCPU, a.allCPU + b.allCPU}
}

// allocRates returns allocations and bytes per simulated instruction and the
// GC share of CPU time of an interval's counters.
func allocRates(d allocSample, insts float64) (allocsPer, bytesPer, gcFrac float64) {
	if insts > 0 {
		allocsPer = float64(d.mallocs) / insts
		bytesPer = float64(d.bytes) / insts
	}
	if d.allCPU > 0 {
		gcFrac = d.gcCPU / d.allCPU
	}
	return
}
