package main

import (
	"math"
	"runtime"
	"sort"

	"lscatter/internal/ltephy"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// tail picks the highest candidate percentile that leaves at least ten
// samples above it and returns that percentile, its nearest-rank value and
// the number of samples above it. A sample too small for any candidate
// reports its maximum as percentile 100 with nothing beyond.
func tail(xs []float64) (pct, value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1-based nearest rank
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return p, s[rank-1], n - rank
		}
	}
	return 100, s[n-1], 0
}

// liveHeapMB collects garbage and returns the heap in use, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// waveformCacheMB returns the sample bytes the process-wide waveform cache
// holds, in MB.
func waveformCacheMB() float64 { return float64(ltephy.SharedStats().Bytes) / 1e6 }
