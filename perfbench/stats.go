package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles by the same exclusive
// method as Python's statistics.quantiles(n=4).
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(p float64) float64 {
		x := p * float64(n+1)
		j := int(math.Floor(x))
		d := x - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// quantileDur returns the nearest-rank q-quantile of sorted durations.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
