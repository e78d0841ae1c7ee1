package main

import "repro/internal/mobility"

// workload is one traffic mix over one shape of the stack. Every workload
// is closed-loop: client 1 (location updates) and client 2 (queries) each
// send their next call only after the previous one was answered, over one
// connection each.
type workload struct {
	name  string
	users int
	// classes make up the stationary public objects.
	classes []mobility.ObjectClass
	// ks are the anonymity levels user profiles draw from, by user id.
	ks []int
	// shards is the number of lbsd shards behind an lbsrouter; 0 boots a
	// single lbsd and no router.
	shards int
	// updateBatch is the entry count of a BatchUpdate frame; 0 means
	// single Update calls with one CloakQuery per nine updates.
	updateBatch int
	// queryBatch is the entry count of a BatchQuery frame; 0 means single
	// PrivateRange/PrivateNN calls.
	queryBatch int
	// countsPerBatch of the queryBatch entries are public range counts
	// over fixed-size squares of side countSide; the rest alternate
	// private range and private NN, or are all private ranges when
	// rangeOnly is set.
	countsPerBatch int
	countSide      float64
	rangeOnly      bool
	// Private-range radii are drawn uniformly from [radiusLo, radiusHi).
	radiusLo, radiusHi float64
	// queryK, when set, offers client 2 only the cloaks of users whose
	// requested k is at least queryK.
	queryK int
}

var workloads = []workload{
	{
		// Per-message path of every tier: frame decode, admission and
		// cloaking, one forward per update, a region-index write and an
		// R-tree that fits in cache. No batch engine and no router.
		name:  "city_updates",
		users: 100_000,
		classes: []mobility.ObjectClass{
			{Name: "fuel", N: 5_000, Dist: mobility.Uniform},
			{Name: "food", N: 15_000, Dist: mobility.Uniform},
		},
		ks:       []int{5, 10, 25, 50},
		radiusLo: 0.005, radiusHi: 0.015,
	},
	{
		// Both batch engines, the forward link and an R-tree far larger
		// than the CPU caches. 5×10^5 objects is close to what one
		// LoadStationary frame can carry under the 16 MiB frame cap.
		name:  "gateway_batches",
		users: 100_000,
		classes: []mobility.ObjectClass{
			{Name: "fuel", N: 100_000, Dist: mobility.Uniform},
			{Name: "food", N: 400_000, Dist: mobility.Uniform},
		},
		ks:          []int{5, 10},
		updateBatch: 256,
		queryBatch:  64,
		radiusLo:    0.0005, radiusHi: 0.0015,
	},
	{
		// The router's scatter/gather over four shards, replicated
		// regions that straddle tiles, and long count reads next to
		// forwarded writes. Count squares have one fixed size: mixed
		// sizes make the cost of a count batch bimodal.
		name:  "routed_analytics",
		users: 50_000,
		classes: []mobility.ObjectClass{
			{Name: "fuel", N: 5_000, Dist: mobility.Uniform},
			{Name: "food", N: 15_000, Dist: mobility.Uniform},
		},
		ks:             []int{10, 25, 50, 200},
		queryK:         200,
		shards:         4,
		updateBatch:    32,
		queryBatch:     4,
		countsPerBatch: 1,
		countSide:      0.1,
		rangeOnly:      true,
		radiusLo:       0.005, radiusHi: 0.015,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// kOf is user id's requested anonymity level: a fixed function of the
// seed and the id, so the benchmark knows every profile without asking
// the anonymizer.
func (w workload) kOf(seed, id uint64) int {
	return w.ks[mix(seed^0x6b5f^id*0x9e3779b97f4a7c15)%uint64(len(w.ks))]
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rnd is a small deterministic generator for the clients' choices.
type rnd struct{ s uint64 }

func (r *rnd) next() uint64 { r.s += 0x9e3779b97f4a7c15; return mix(r.s) }

// float returns a uniform value in [0,1).
func (r *rnd) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// between returns a uniform value in [lo,hi).
func (r *rnd) between(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// intn returns a uniform value in [0,n).
func (r *rnd) intn(n int) int { return int(r.next() % uint64(n)) }
