package main

import (
	"testing"

	"repro/internal/geo"
)

// Objects around the cloak [0.4,0.6]² with radius 0.1: ids 1–3 are
// within the radius of the cloak, 4 and 5 are not, 6 is near but of
// another class.
var testObjs = []object{
	{1, "fuel", 0.5, 0.5},   // inside the cloak
	{2, "fuel", 0.65, 0.5},  // 0.05 to the right
	{3, "fuel", 0.45, 0.69}, // 0.09 above
	{4, "fuel", 0.75, 0.5},  // 0.15 to the right
	{5, "fuel", 0.68, 0.68}, // 0.113 off the corner
	{6, "food", 0.55, 0.62}, // 0.02 above, other class
}

var testCloak = geo.R(0.4, 0.4, 0.6, 0.6)

func TestRangeOracle(t *testing.T) {
	ix := newObjectIndex(testObjs)
	exact := geo.Pt(0.59, 0.5)
	if err := ix.checkRange(exact, testCloak, 0.1, "fuel", []uint64{1, 2, 3}); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := ix.checkRange(exact, testCloak, 0.1, "", []uint64{1, 2, 3, 6}); err != nil {
		t.Fatalf("correct all-class answer rejected: %v", err)
	}
	for name, got := range map[string][]uint64{
		"dropped candidate":      {1, 3},
		"object beyond radius":   {1, 2, 3, 4},
		"object of wrong class":  {1, 2, 3, 6},
		"duplicated candidate":   {1, 2, 2, 3},
		"unknown object":         {1, 2, 3, 99},
		"dropped inside object":  {2, 3},
		"empty answer":           nil,
		"beyond corner distance": {1, 2, 3, 5},
	} {
		if err := ix.checkRange(exact, testCloak, 0.1, "fuel", got); err == nil {
			t.Errorf("%s: corrupted answer %v accepted", name, got)
		}
	}
}

func TestNNOracle(t *testing.T) {
	ix := newObjectIndex(testObjs)
	exact := geo.Pt(0.62, 0.5) // nearest fuel object is 2
	if err := ix.checkNN(exact, "fuel", []uint64{1, 2, 3}); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := ix.checkNN(exact, "fuel", []uint64{1, 3, 4}); err == nil {
		t.Error("answer without the nearest neighbour accepted")
	}
	if err := ix.checkNN(exact, "food", []uint64{1, 2}); err == nil {
		t.Error("answer without the nearest object of the class accepted")
	}
	// Two objects at the same distance: either one will do.
	tie := newObjectIndex([]object{{1, "fuel", 0.4, 0.5}, {2, "fuel", 0.6, 0.5}})
	if err := tie.checkNN(geo.Pt(0.5, 0.5), "fuel", []uint64{2}); err != nil {
		t.Errorf("tied nearest neighbour rejected: %v", err)
	}
}

func TestCloakOracle(t *testing.T) {
	positions := []geo.Point{{X: 0.45, Y: 0.45}, {X: 0.5, Y: 0.5}, {X: 0.55, Y: 0.55}, {X: 0.9, Y: 0.9}}
	if err := checkCloak(geo.Pt(0.5, 0.5), testCloak, 3, positions); err != nil {
		t.Fatalf("3-anonymous cloak rejected: %v", err)
	}
	if err := checkCloak(geo.Pt(0.9, 0.9), testCloak, 3, positions); err == nil {
		t.Error("cloak that misses its point accepted")
	}
	if err := checkCloak(geo.Pt(0.5, 0.5), testCloak, 4, positions); err == nil {
		t.Error("cloak holding fewer than k users accepted")
	}
}

func TestCountOracle(t *testing.T) {
	q := geo.R(0, 0, 0.5, 0.5)
	regions := []geo.Rect{
		geo.R(0.1, 0.1, 0.2, 0.2), // inside: 1
		geo.R(0.4, 0.1, 0.6, 0.2), // half inside: 0.5
		geo.R(0.7, 0.7, 0.8, 0.8), // outside: 0
		geo.R(0.3, 0.3, 0.3, 0.3), // point inside: 1
	}
	b := recount(regions, q)
	if err := checkCount(b, 2, 3, 2.5); err != nil {
		t.Fatalf("correct count rejected: %v", err)
	}
	for name, c := range map[string]struct {
		lo, hi int
		e      float64
	}{
		"min too high":       {3, 3, 2.5},
		"min too low":        {1, 3, 2.5},
		"max too high":       {2, 4, 2.5},
		"max too low":        {2, 2, 2.5},
		"expected value off": {2, 3, 2.4},
	} {
		if err := checkCount(b, c.lo, c.hi, c.e); err == nil {
			t.Errorf("%s: count [%d, %d] E=%g accepted", name, c.lo, c.hi, c.e)
		}
	}
}

func TestLedgerOracle(t *testing.T) {
	if err := checkLedger(10, 10, 10, 0, 0, 0); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	for name, c := range map[string][6]uint64{
		"update lost before the database": {10, 9, 10, 0, 0, 0},
		"anonymizer undercounts":          {10, 10, 9, 0, 0, 0},
		"forward failed":                  {10, 10, 10, 1, 0, 0},
		"update dropped from the queue":   {10, 10, 10, 0, 1, 0},
		"update still queued":             {10, 10, 10, 0, 0, 1},
	} {
		if err := checkLedger(c[0], c[1], c[2], c[3], c[4], int(c[5])); err == nil {
			t.Errorf("%s: ledger accepted", name)
		}
	}
}

func TestFeed(t *testing.T) {
	f := newFeed()
	r := rnd{s: 1}
	for i := uint64(1); i <= 5; i++ {
		f.put(cloakRec{id: i})
	}
	got, fresh := f.take(2, &r, nil)
	if fresh != 2 || got[0].id != 4 || got[1].id != 5 {
		t.Fatalf("take(2) = %v with %d fresh, want the newest two", got, fresh)
	}
	got, fresh = f.take(3, &r, nil)
	if fresh != 0 || len(got) != 3 {
		t.Fatalf("take(3) after draining = %d cloaks, %d fresh; want 3 reused", len(got), fresh)
	}
}
