package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.001, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 0.9); got != 42 {
		t.Errorf("percentile of one sample = %g", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{100, 0.9, true},   // rank 90, ten beyond
		{99, 0.9, false},   // rank 90, nine beyond
		{101, 0.9, true},   // rank 91, ten beyond
		{20, 0.5, true},    // rank 10, ten beyond
		{19, 0.5, false},   // rank 10, nine beyond
		{1000, 0.99, true}, // rank 990, ten beyond
		{999, 0.99, false},
		{0, 0.5, false},
	} {
		if err := checkTail(c.n, c.q); (err == nil) != c.ok {
			t.Errorf("checkTail(%d, %g) = %v, want ok=%v", c.n, c.q, err, c.ok)
		}
	}
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
	if got := minSamples(0.5); got != 20 {
		t.Errorf("minSamples(0.5) = %d, want 20", got)
	}
}
