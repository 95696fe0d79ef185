package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Op: 0, ID: 1, Name: "op", Start: 0, End: 100},
		// Two concurrent children overlap on [20, 30): their union is
		// [10, 40), so the parent keeps 100 - 30.
		{Op: 0, ID: 2, Parent: 1, Name: "table", Start: 10, End: 30},
		{Op: 0, ID: 3, Parent: 1, Name: "table", Start: 20, End: 40},
		// A child nested in another child counts against that child only.
		{Op: 0, ID: 4, Parent: 2, Name: "inner", Start: 12, End: 18},
		// A child sticking out of its parent is clipped to the parent.
		{Op: 0, ID: 5, Parent: 1, Name: "late", Start: 90, End: 120},
		// Same ids in another op are another tree.
		{Op: 1, ID: 1, Name: "op", Start: 0, End: 50},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20 - 6, 20, 6, 30, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, spans[i].ID, got[i], want[i])
		}
	}
}

func TestUnionWithin(t *testing.T) {
	for _, c := range []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{0, 5}, {5, 10}}, 0, 10, 10},
		{[][2]int64{{2, 4}, {1, 3}, {8, 9}}, 0, 10, 4},
		{[][2]int64{{0, 100}, {10, 20}}, 0, 10, 10},
		{[][2]int64{{20, 30}}, 0, 10, 0},
		{[][2]int64{{-5, 2}, {9, 15}}, 0, 10, 3},
	} {
		if got := unionWithin(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("unionWithin(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.open(0, 0, "x")
	s.close()
	tr.record(0, 0, "y", time.Millisecond)
	tr.attr(0, "z", 1)
	if s.id() != 0 {
		t.Errorf("untraced span id = %d", s.id())
	}
}
