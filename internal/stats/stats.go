// Package stats provides the small set of descriptive statistics the
// paper's evaluation reports: means, standard deviations, relative standard
// deviations, and percentage deltas between configurations.
package stats

import (
	"errors"
	"math"
	"sort"
	"time"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stddev returns the sample standard deviation (n-1 denominator) of xs.
// Samples with fewer than two elements have zero deviation.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// RelStddev returns the standard deviation as a fraction of the mean
// (the "relative standard deviation" bars in the paper's figures).
// It returns 0 when the mean is zero.
func RelStddev(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return Stddev(xs) / m
}

// PercentChange returns 100*(to-from)/from: the "+25.7%" style labels used
// throughout the paper's figures. It returns 0 when from is zero.
func PercentChange(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return 100 * (to - from) / from
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
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

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary bundles the statistics the experiment harness reports per series.
type Summary struct {
	N         int
	Mean      float64
	Stddev    float64
	RelStddev float64
	Min       float64
	Max       float64
	Median    float64
}

// Summarize computes a Summary over xs. It returns ErrEmpty for an empty
// sample so callers cannot silently report a zero-valued series.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	return Summary{
		N:         len(xs),
		Mean:      Mean(xs),
		Stddev:    Stddev(xs),
		RelStddev: RelStddev(xs),
		Min:       Min(xs),
		Max:       Max(xs),
		Median:    Median(xs),
	}, nil
}

// DurationsMicros converts durations to float64 microseconds, the unit the
// lmbench process table and the detection figures report.
func DurationsMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}
