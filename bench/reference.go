package main

import (
	"slices"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on is shared: for minutes at a time its
// memory-heavy code runs 30-55% slower than in the minutes before, and
// coanalyze with it. A raw wall time then spreads by more than any
// regression bound between runs of one commit. Each run therefore also
// times a fixed reference task between its repetitions, and the gated
// CPU-bound times are scaled to the speed at which the reference task
// takes referenceNominal. The raw times are reported too.
//
// Over ten paper-batch runs on a shared 2-CPU host the raw median
// coanalyze time spread 54% (interquartile distance over median) and
// the scaled one 5%; a pure hashing task slows far less than coanalyze
// does and, tried in its place, left 12% of a 21% spread.

// referenceNominal is the reference task's time on the 2-CPU host the
// baselines were recorded on, when that host was quiet.
const referenceNominal = 75 * time.Millisecond

// referenceTask formats, interns, sorts and parses 80,000 log-like lines
// — the kind of work coanalyze does — and returns how long it took. It
// uses only the standard library, so no change to the programs under
// test moves it.
func referenceTask() time.Duration {
	const n = 80000
	start := time.Now()
	lines := make([]string, 0, n)
	seen := make(map[string]int, n)
	for i := 0; i < n; i++ {
		line := "R" + strconv.Itoa(i*7919%1000003) + " M" + strconv.Itoa(i%128) +
			" T" + strconv.FormatFloat(float64(i)*1.5, 'f', 2, 64)
		lines = append(lines, line)
		seen[line] = i
	}
	slices.Sort(lines)
	sum := 0.0
	for _, l := range lines {
		f, _ := strconv.ParseFloat(l[strings.LastIndexByte(l, 'T')+1:], 64)
		sum += f + float64(seen[l])
	}
	referenceSum = sum
	return time.Since(start)
}

// referenceSum keeps the reference task's result live.
var referenceSum float64

// hostScale is the factor that scales a time measured while the
// reference task took the given median to a host where it takes
// referenceNominal.
func hostScale(refs []float64) float64 {
	return referenceNominal.Seconds() / median(refs)
}
