package main

import "sort"

// stat summarizes one metric over a run's repetitions.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newStat(unit string, values []float64) stat {
	q1, q3 := quartiles(values)
	return stat{Unit: unit, Median: median(values), Q1: q1, Q3: q3, N: len(values), Values: values}
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values for an
// even count; 0 for no values.
func median(values []float64) float64 {
	s := sorted(values)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(values, n=4) (its default "exclusive"
// method), so spreads computed here and by that function agree.
func quartiles(values []float64) (q1, q3 float64) {
	s := sorted(values)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const parts = 4
		m := len(s) + 1
		j := i * m / parts
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*parts
		return (s[j-1]*float64(parts-delta) + s[j]*float64(delta)) / parts
	}
	return q(1), q(3)
}
