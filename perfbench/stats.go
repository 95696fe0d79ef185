package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// which must be sorted ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// checkTail reports whether at least minTail of n samples lie beyond
// the nearest-rank q-quantile, so that the percentile rests on data.
func checkTail(n int, q float64) error {
	if n == 0 {
		return fmt.Errorf("no samples")
	}
	if beyond := n - rank(n, q); beyond < minTail {
		return fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, n, beyond, minTail)
	}
	return nil
}

// minSamples is the smallest sample count for which the q-quantile has
// minTail samples beyond it.
func minSamples(q float64) int {
	n := 1
	for checkTail(n, q) != nil {
		n++
	}
	return n
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(sortedCopy(xs), 0.5)
}
