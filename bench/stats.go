package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest element with at least q of the sample at
// or below it. sorted must be ascending; an empty sample yields 0.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the median of vals (mean of the middle pair for an even
// count); 0 for an empty slice. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// sliceStat is one metric over a phase's measured slices, reduced by one of
// two rules.
//
// A raw timing (statOf) is reported as the slice at the best fifth: the best
// of five slices, the fifth best of twenty-five (best is lowest latency,
// highest rate). Interference from the host — a stolen processor — only ever
// makes a slice worse, so a quiet slice is the figure that repeats, and a
// change to the code moves every slice. The in-process workloads, whose calls
// never sleep in the kernel, are reported this way.
//
// A timing of a call that crosses processes (scaledStat) is mostly thread
// wake-ups: a remote-plain read takes 5 times as long as one thread of the
// generator takes to wake from nanosleep(2), a fabric append 18 times. On
// this shared host the time a wake-up takes wanders by a quarter from minute
// to minute — far longer than a run — and every such timing wanders with it.
// The generator therefore measures that time itself, in the same slice (the
// open loop's dispatcher, the closed loop's wake probe). A slice whose
// wake-ups were slower than the wake-up time frozen at calibration, on a
// quiet box, has its value scaled to it (latency x ref/measured, rate x
// measured/ref); a slice whose wake-ups were no slower is taken as measured
// — a box is never quicker than quiet, and a thread that wakes early has
// only been caught by the hypervisor's halt polling. The median slice is
// reported; the raw slices are printed beside it.
type sliceStat struct {
	Value  float64   `json:"value"` // statOf: the slice at the best fifth; scaledStat: the median slice
	Median float64   `json:"median"`
	Worst  float64   `json:"worst"`
	Slices []float64 `json:"slices"`
	Raw    []float64 `json:"raw_slices,omitempty"` // scaledStat only: the slices as measured
}

// statOf reduces per-slice values; higherIsBetter says which end is best.
func statOf(perSlice []float64, higherIsBetter bool) sliceStat {
	if len(perSlice) == 0 {
		return sliceStat{}
	}
	s := append([]float64(nil), perSlice...)
	sort.Float64s(s) // ascending: best first for a latency
	if higherIsBetter {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	return sliceStat{Value: s[(len(s)+4)/5-1], Median: median(perSlice), Worst: s[len(s)-1], Slices: perSlice}
}

// scaledStat multiplies each slice's value by its factor and reports the
// median of the products. Worst is the product farthest from it.
func scaledStat(perSlice, factor []float64) sliceStat {
	if len(perSlice) == 0 {
		return sliceStat{}
	}
	scaled := make([]float64, len(perSlice))
	for i, v := range perSlice {
		scaled[i] = v * factor[i]
	}
	med := median(scaled)
	worst := med
	for _, v := range scaled {
		if math.Abs(v-med) > math.Abs(worst-med) {
			worst = v
		}
	}
	return sliceStat{Value: med, Median: med, Worst: worst, Slices: scaled, Raw: perSlice}
}

// p50us returns the median of ns-valued samples in microseconds. It sorts
// its argument.
func p50us(ns []int64) float64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return float64(percentile(ns, 0.50)) / 1e3
}

// quartileSpread is the self-check's steadiness figure: the distance
// between the first and third quartile as a share of the median, with the
// quartiles Python's statistics.quantiles(values, n=4) would give
// (exclusive method), since that is what the acceptance driver computes.
func quartileSpread(vals []float64) (q1, med, q3, spread float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0], 0
		}
		return 0, 0, 0, 0
	}
	at := func(i int) float64 { // i-th of 3 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	q1, med, q3 = at(1), at(2), at(3)
	if med != 0 {
		spread = (q3 - q1) / math.Abs(med)
	}
	return q1, med, q3, spread
}
