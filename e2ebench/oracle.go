package main

// The oracles recompute answers from the benchmark's own copy of the
// inputs, with arithmetic written here: none of them calls into the
// program's geometry, index or probability code. geo.Point and geo.Rect
// serve only as plain coordinate carriers.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// eps absorbs the last-bit differences between two correct evaluations of
// the same distance or area; a value that close to a boundary may fall on
// either side of it.
const eps = 1e-9

// object is the benchmark's own record of one public object.
type object struct {
	id    uint64
	class string
	x, y  float64
}

// objectIndex is the benchmark's object list sorted by x, so that a range
// oracle scans only the slab of x values its rectangle spans.
type objectIndex struct {
	objs []object
}

func newObjectIndex(objs []object) *objectIndex {
	sorted := append([]object(nil), objs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].x < sorted[j].x })
	return &objectIndex{objs: sorted}
}

// slab returns the objects with x in [lo, hi].
func (ix *objectIndex) slab(lo, hi float64) []object {
	i := sort.Search(len(ix.objs), func(i int) bool { return ix.objs[i].x >= lo })
	j := sort.Search(len(ix.objs), func(i int) bool { return ix.objs[i].x > hi })
	return ix.objs[i:j]
}

// distToRect is the distance from (x, y) to the closest point of r.
func distToRect(x, y float64, r geo.Rect) float64 {
	dx := math.Max(0, math.Max(r.Min.X-x, x-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-y, y-r.Max.Y))
	return math.Sqrt(dx*dx + dy*dy)
}

func inRect(x, y float64, r geo.Rect) bool {
	return x >= r.Min.X && x <= r.Max.X && y >= r.Min.Y && y <= r.Max.Y
}

func classOK(want, got string) bool { return want == "" || want == got }

// checkRange verifies a private-range answer: the candidates must be
// exactly the objects of the class within radius of the cloak, and must
// include every object within radius of the exact point.
func (ix *objectIndex) checkRange(exact geo.Point, region geo.Rect, radius float64, class string, got []uint64) error {
	gotSet := make(map[uint64]bool, len(got))
	for _, id := range got {
		if gotSet[id] {
			return fmt.Errorf("range: object %d returned twice", id)
		}
		gotSet[id] = true
	}
	matched := 0
	for _, o := range ix.slab(region.Min.X-radius-eps, region.Max.X+radius+eps) {
		if !classOK(class, o.class) {
			continue
		}
		d := distToRect(o.x, o.y, region)
		switch {
		case d <= radius-eps:
			if !gotSet[o.id] {
				return fmt.Errorf("range: object %d at distance %.6g from the cloak is missing (radius %.6g)", o.id, d, radius)
			}
		case d > radius+eps:
			if gotSet[o.id] {
				return fmt.Errorf("range: object %d at distance %.6g from the cloak is not a candidate (radius %.6g)", o.id, d, radius)
			}
			continue
		}
		if gotSet[o.id] {
			matched++
		}
		if dx, dy := o.x-exact.X, o.y-exact.Y; math.Sqrt(dx*dx+dy*dy) <= radius-eps && !gotSet[o.id] {
			return fmt.Errorf("range: object %d within radius of the exact point is missing", o.id)
		}
	}
	if matched != len(got) {
		return fmt.Errorf("range: %d of %d candidates are not objects of class %q near the cloak", len(got)-matched, len(got), class)
	}
	return nil
}

// checkNN verifies a private-NN answer: the true nearest object of the
// class to the exact point must be among the candidates. When several
// objects tie for nearest, any of them will do.
func (ix *objectIndex) checkNN(exact geo.Point, class string, got []uint64) error {
	best := math.Inf(1)
	for _, o := range ix.objs {
		if !classOK(class, o.class) {
			continue
		}
		if d := math.Hypot(o.x-exact.X, o.y-exact.Y); d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) {
		return fmt.Errorf("nn: no object of class %q", class)
	}
	gotSet := make(map[uint64]bool, len(got))
	for _, id := range got {
		gotSet[id] = true
	}
	for _, o := range ix.slab(exact.X-best-eps, exact.X+best+eps) {
		if classOK(class, o.class) && gotSet[o.id] && math.Hypot(o.x-exact.X, o.y-exact.Y) <= best+eps {
			return nil
		}
	}
	return fmt.Errorf("nn: the nearest %q object to the exact point (distance %.6g) is not among %d candidates", class, best, len(got))
}

// checkCloak verifies one cloak against the benchmark's record of every
// user's last acknowledged position: the region must contain the user's
// exact point and hold at least k users.
func checkCloak(exact geo.Point, region geo.Rect, k int, positions []geo.Point) error {
	if !inRect(exact.X, exact.Y, region) {
		return fmt.Errorf("cloak: region %v misses the exact point %v", region, exact)
	}
	n := 0
	for _, p := range positions {
		if inRect(p.X, p.Y, region) {
			n++
		}
	}
	if n < k {
		return fmt.Errorf("cloak: region %v holds %d users, k=%d requested", region, n, k)
	}
	return nil
}

// countBounds recomputes a public range count over q from the stored
// regions: lo and hi bound the regions certainly inside q and the regions
// that overlap it, and expected is the sum of their overlap shares. The
// bounds are widened by values within eps of a boundary.
type countBounds struct {
	loMin, loMax, hiMin, hiMax int
	expected                   float64
}

func recount(regions []geo.Rect, q geo.Rect) countBounds {
	var b countBounds
	for _, r := range regions {
		w := math.Min(r.Max.X, q.Max.X) - math.Max(r.Min.X, q.Min.X)
		h := math.Min(r.Max.Y, q.Max.Y) - math.Max(r.Min.Y, q.Min.Y)
		area := (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
		var p float64
		switch {
		case area <= 0:
			if inRect(r.Min.X, r.Min.Y, q) {
				p = 1
			}
		case w > 0 && h > 0:
			p = w * h / area
		}
		inside := r.Min.X >= q.Min.X && r.Max.X <= q.Max.X && r.Min.Y >= q.Min.Y && r.Max.Y <= q.Max.Y
		if inside {
			b.loMin++
		}
		if inside || p >= 1-eps {
			b.loMax++
		}
		if p > eps {
			b.hiMin++
		}
		if p > 0 || (w >= -eps && h >= -eps) {
			b.hiMax++
		}
		b.expected += p
	}
	return b
}

// checkCount verifies a count answer's interval and expected value.
func checkCount(b countBounds, lo, hi int, expected float64) error {
	if lo < b.loMin || lo > b.loMax {
		return fmt.Errorf("count: min %d outside [%d, %d]", lo, b.loMin, b.loMax)
	}
	if hi < b.hiMin || hi > b.hiMax {
		return fmt.Errorf("count: max %d outside [%d, %d]", hi, b.hiMin, b.hiMax)
	}
	if math.Abs(expected-b.expected) > eps*math.Max(1, b.expected)+float64(b.hiMax-b.hiMin)*eps {
		return fmt.Errorf("count: expected value %.9g, recomputed %.9g", expected, b.expected)
	}
	return nil
}

// checkLedger verifies that no acknowledged update was lost: every
// acknowledged location update reached the database exactly once, the
// anonymizer agrees, and nothing is parked or failed.
func checkLedger(acked, hookStored, forwarded, forwardErrs, dropped uint64, queueDepth int) error {
	if hookStored != acked || forwarded != acked {
		return fmt.Errorf("ledger: %d updates acknowledged, %d regions stored through the forward hook, anonymizer reports %d forwarded", acked, hookStored, forwarded)
	}
	if forwardErrs != 0 || dropped != 0 || queueDepth != 0 {
		return fmt.Errorf("ledger: %d forward errors, %d dropped, %d still queued", forwardErrs, dropped, queueDepth)
	}
	return nil
}
