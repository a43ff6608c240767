package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 3},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almost(got, tt.want) {
				t.Fatalf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestStddev(t *testing.T) {
	if got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almost(got, 2.1380899352993947) {
		t.Fatalf("Stddev = %v", got)
	}
	if Stddev(nil) != 0 || Stddev([]float64{5}) != 0 {
		t.Fatal("Stddev of <2 samples should be 0")
	}
}

func TestRelStddev(t *testing.T) {
	xs := []float64{90, 100, 110}
	want := Stddev(xs) / 100
	if got := RelStddev(xs); !almost(got, want) {
		t.Fatalf("RelStddev = %v, want %v", got, want)
	}
	if RelStddev([]float64{0, 0}) != 0 {
		t.Fatal("RelStddev with zero mean should be 0")
	}
}

func TestPercentChange(t *testing.T) {
	tests := []struct {
		from, to, want float64
	}{
		{100, 125.7, 25.7},
		{100, 100, 0},
		{200, 100, -50},
		{0, 5, 0}, // guarded division
	}
	for _, tt := range tests {
		if got := PercentChange(tt.from, tt.to); !almost(got, tt.want) {
			t.Fatalf("PercentChange(%v,%v) = %v, want %v", tt.from, tt.to, got, tt.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); !almost(got, 2) {
		t.Fatalf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); !almost(got, 2.5) {
		t.Fatalf("even median = %v, want 2.5", got)
	}
	if Median(nil) != 0 {
		t.Fatal("empty median should be 0")
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated its input: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{5, -2, 9, 0}
	if got := Min(xs); got != -2 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max(xs); got != 9 {
		t.Fatalf("Max = %v", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty Min/Max should be 0")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	_, err := Summarize(nil)
	if !errors.Is(err, ErrEmpty) {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || !almost(s.Mean, 2.5) || !almost(s.Median, 2.5) ||
		s.Min != 1 || s.Max != 4 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestDurationConversions(t *testing.T) {
	us := []time.Duration{3 * time.Microsecond, 1500 * time.Nanosecond}
	if got := DurationsMicros(us); !almost(got[0], 3) || !almost(got[1], 1.5) {
		t.Fatalf("DurationsMicros = %v", got)
	}
}

// Property: mean lies within [min, max], stddev is non-negative, and
// shifting all samples by a constant shifts the mean by that constant while
// leaving the stddev unchanged.
func TestMeanStddevProperties(t *testing.T) {
	f := func(raw []int16, shift int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		shifted := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			shifted[i] = float64(v) + float64(shift)
		}
		m, sd := Mean(xs), Stddev(xs)
		if sd < 0 {
			return false
		}
		if m < Min(xs)-1e-9 || m > Max(xs)+1e-9 {
			return false
		}
		if math.Abs(Mean(shifted)-(m+float64(shift))) > 1e-6 {
			return false
		}
		return math.Abs(Stddev(shifted)-sd) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
