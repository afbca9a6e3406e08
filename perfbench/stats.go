package main

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail read off fewer samples moves by whole samples from run to run.
const minBeyond = 10

// Dist is a sorted sample of one timed operation.
type Dist struct {
	s []float64
}

// NewDist copies and sorts the samples.
func NewDist(samples []float64) Dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Dist{s: s}
}

// N is the sample count.
func (d Dist) N() int { return len(d.s) }

// Median is the middle sample (mean of the middle two for even counts).
func (d Dist) Median() float64 {
	n := len(d.s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d.s[n/2]
	}
	return (d.s[n/2-1] + d.s[n/2]) / 2
}

// Tail returns the highest percentile up to want (a fraction, 0.99 for
// p99) that has at least minBeyond samples above it, as the nearest-rank
// sample, together with the percentile it stands for. With too few
// samples for any percentile above the median the median is returned,
// labeled 0.5, so a tail is never reported below the median.
func (d Dist) Tail(want float64) (value, pct float64) {
	n := len(d.s)
	if n == 0 {
		return math.NaN(), 0
	}
	r := int(math.Ceil(want*float64(n))) - 1 // nearest rank, 0-based
	if r < 0 {
		r = 0
	}
	if max := n - 1 - minBeyond; r > max {
		r = max
	}
	pct = float64(r+1) / float64(n)
	if pct <= 0.5 {
		return d.Median(), 0.5
	}
	return d.s[r], pct
}

// tailWindow is the fewest samples a window of WindowedTail holds: a
// p99 over 1,000 samples has ten beyond it.
const tailWindow = 1000

// WindowedTail cuts samples, in the order they were taken, into equal
// windows of at least tailWindow samples and returns the median over
// windows of each window's Tail(want), with the percentile the windows
// reported. One burst of interference on a shared machine moves one
// window's tail, not the median of all.
func WindowedTail(samples []float64, want float64) (value, pct float64) {
	windows := len(samples) / tailWindow
	if windows <= 1 {
		return NewDist(samples).Tail(want)
	}
	size := len(samples) / windows
	tails := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		v, p := NewDist(samples[w*size : (w+1)*size]).Tail(want)
		tails = append(tails, v)
		pct = p
	}
	return NewDist(tails).Median(), pct
}

// Sum is the total of the samples.
func (d Dist) Sum() float64 {
	t := 0.0
	for _, v := range d.s {
		t += v
	}
	return t
}

// windowPeaks samples the process's resident-set high-water mark once
// per window of a measured phase: cut reads the mark, then resets it so
// the next window starts from the memory resident at that moment. The
// median window peak is steadier than the whole-process mark, which
// lands on whichever garbage-collection cycle happened to run late.
// Where the mark cannot be reset (no writable clear_refs), each sample
// is the whole-process mark.
type windowPeaks struct {
	samples []float64
}

// start begins the first window: a collection returns the garbage of
// set-up to the OS, and the mark restarts from what remains resident.
func (w *windowPeaks) start() {
	debug.FreeOSMemory()
	resetPeakRSS()
}

// cut closes a window.
func (w *windowPeaks) cut() {
	w.samples = append(w.samples, peakRSSMB())
	resetPeakRSS()
}

// median is the median window peak.
func (w *windowPeaks) median() float64 { return NewDist(w.samples).Median() }

// resetPeakRSS restarts VmHWM from the current resident set (Linux
// clear_refs code 5).
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
