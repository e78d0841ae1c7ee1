package main

import (
	"math"
	"sort"
	"time"
)

// callLog records one client's successful calls in completion order.
type callLog struct {
	at      []time.Duration // completion time since the window began
	lat     []time.Duration
	entries []int // entries the call acknowledged or answered
}

func (l *callLog) add(at, lat time.Duration, entries int) {
	l.at = append(l.at, at)
	l.lat = append(l.lat, lat)
	l.entries = append(l.entries, entries)
}

// Slicing bounds: a slice holds at least minSlice calls, and a window
// has at most maxSlices.
const (
	minSlice  = 100
	maxSlices = 16
)

type callSummary struct {
	p50, p90 float64 // ms
	rate     float64 // entries per second
	slices   int
}

// summary cuts the calls into consecutive slices of equal count, takes
// each slice's p50, p90 and entry rate, and reports for each the value
// of the better quartile of slices: the slice a quarter of the way from
// the best end. Interference from outside the benchmark (other tenants
// of the host taking CPU time) only ever makes a slice worse, so the
// better quartile follows the program while the worst slices follow the
// host. With fewer than 2·minSlice calls the whole window is one slice.
func (l *callLog) summary() callSummary {
	n := len(l.lat)
	k := min(maxSlices, max(1, n/minSlice))
	var p50s, p90s, rates []float64
	var prevEnd time.Duration
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if lo == hi {
			continue
		}
		p50s = append(p50s, ms(percentile(l.lat[lo:hi], 0.50)))
		p90s = append(p90s, ms(percentile(l.lat[lo:hi], 0.90)))
		sum := 0
		for _, e := range l.entries[lo:hi] {
			sum += e
		}
		end := l.at[hi-1]
		if end > prevEnd {
			rates = append(rates, float64(sum)/(end-prevEnd).Seconds())
		}
		prevEnd = end
	}
	return callSummary{p50: betterQuartile(p50s, true), p90: betterQuartile(p90s, true),
		rate: betterQuartile(rates, false), slices: k}
}

// betterQuartile returns the value a quarter of the way from the best end
// of xs: from the lowest when lowerIsBetter, else from the highest.
func betterQuartile(xs []float64, lowerIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := (len(s) - 1) / 4
	if !lowerIsBetter {
		i = len(s) - 1 - i
	}
	return s[i]
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile.
func percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, i)]
}
