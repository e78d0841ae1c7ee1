// Command e2ebench is the repository's end-to-end benchmark. It boots the
// three-tier stack in one process — lbsd (or lbsd shards behind an
// lbsrouter) and the anonymizer, each behind its own loopback TCP service
// — and drives it with two closed-loop clients: client 1 sends location
// updates to the anonymizer, client 2 sends queries to the database tier.
// Answers are checked against oracles computed apart from the program.
//
// Usage:
//
//	bash e2ebench/run.sh --workload city_updates --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a traced run
// and prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
// oracle check exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// setups is how many times a timed run sets the stack up; setup_s is the
// median.
const setups = 3

// warmup is how long both clients run before a measured window. Its calls
// are checked and counted like any other but not timed: the first two
// seconds after set-up ran about a quarter slower than the rest of a
// routed_analytics window.
const warmup = 2 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	traced := flag.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of city_updates, routed_analytics, gateway_batches), --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, *seed, d)
	} else {
		res, err = timedRun(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// timedRun sets the stack up `setups` times, keeps the last, warms it up,
// and measures the end-to-end metrics over one untraced window.
func timedRun(w workload, seed uint64, d time.Duration) (result, error) {
	var times []float64
	var st *stack
	var in *inputs
	var fd *feed
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
			st, in = nil, nil
			runtime.GC()
		}
		fd = newFeed()
		t0 := time.Now()
		var err error
		st, in, err = setUp(w, seed, fd)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer st.close()
	runtime.GC()
	live := readRuntime()["/gc/heap/live:bytes"]

	warm, err := runWindow(st, in, fd, warmup, nil)
	if err != nil {
		return result{}, err
	}
	win, err := runWindow(st, in, fd, d, nil)
	if err != nil {
		return result{}, err
	}
	problems, err := verify(st, in, append(warm.ranges, win.ranges...), append(warm.nns, win.nns...))
	if err != nil {
		return result{}, err
	}
	problems = append(append(warm.problems, win.problems...), problems...)

	// Latency tails are reported at p90. A city_updates call stalls for
	// milliseconds about as often as the host takes a CPU away (update
	// p99: about 2 ms at 6 % steal, about 4 ms at 25 %), and its query is
	// two calls, so about twice as many queries as updates stall; a
	// routed_analytics update frame's p95 rose from about 11 to 16 ms in
	// runs with heavy steal, its p90 from about 10 to 12 ms. The
	// closed-loop rates are printed but not reported: they follow the
	// mean latency, which those stalls set, and read 4300 to 7700
	// updates/s for the same code as the host's steal changed.
	upd, qry := win.upd.summary(), win.qry.summary()
	m := map[string]metric{
		"setup_s":              {median(times), "s"},
		"update_p50_ms":        {upd.p50, "ms"},
		"update_p90_ms":        {upd.p90, "ms"},
		"query_p50_ms":         {qry.p50, "ms"},
		"query_p90_ms":         {qry.p90, "ms"},
		"candidates_per_query": {float64(win.candidates) / math.Max(1, float64(win.privOK)), "count"},
		"live_heap_mb":         {live / (1 << 20), "MB"},
	}
	fmt.Printf("workload %s seed %d: %d users, %d objects, set-ups %.3f s\n", w.name, seed, w.users, len(in.objs), times)
	fmt.Printf("update calls %d in %d slices, %.6g updates/s; query calls %d in %d slices, %.6g queries/s\n",
		len(win.upd.lat), upd.slices, upd.rate, len(win.qry.lat), qry.slices, qry.rate)
	ops := warm.ops
	ops.add(win.ops)
	return report(m, ops, warm.noFresh+win.noFresh, problems), nil
}

// report prints the per-kind table, the metrics and any oracle failure,
// and builds the result line.
func report(m map[string]metric, ops tally, noFresh uint64, problems []string) result {
	fmt.Printf("%-14s %10s %8s\n", "kind", "attempted", "failed")
	for k := opKind(0); k < nKinds; k++ {
		fmt.Printf("%-14s %10d %8d\n", kindNames[k], ops.attempted[k], ops.failed[k])
	}
	fmt.Printf("query entries without a fresh cloak: %d\n", noFresh)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	for _, p := range problems {
		fmt.Printf("ORACLE FAILED: %s\n", p)
	}
	attempted, failed := ops.totals()
	return result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// tracedRun sets the stack up once, warms it up, runs an untraced window
// and a traced window of d/2 each, and reports per-layer metrics. The spans are
// written to .bench_build/ when the run ends.
func tracedRun(w workload, seed uint64, d time.Duration) (result, error) {
	fd := newFeed()
	st, in, err := setUp(w, seed, fd)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	runtime.GC()

	warm, err := runWindow(st, in, fd, warmup, nil)
	if err != nil {
		return result{}, err
	}
	rt0 := readRuntime()
	base, err := runWindow(st, in, fd, d/2, nil)
	if err != nil {
		return result{}, err
	}
	rt1 := readRuntime()

	rec := newRecorder()
	s0 := takeSnapshot(st)
	tr, err := runWindow(st, in, fd, d/2, rec)
	if err != nil {
		return result{}, err
	}
	s1 := takeSnapshot(st)

	ranges := append(append(warm.ranges, base.ranges...), tr.ranges...)
	nns := append(append(warm.nns, base.nns...), tr.nns...)
	problems, err := verify(st, in, ranges, nns)
	if err != nil {
		return result{}, err
	}
	problems = append(append(append(warm.problems, base.problems...), tr.problems...), problems...)
	m := perLayer(st, rec.spans, s0, s1, base, tr, rt0, rt1)
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return result{}, err
	}
	if err := rec.write(path); err != nil {
		return result{}, err
	}
	fmt.Printf("workload %s seed %d: %d spans written to %s\n", w.name, seed, len(rec.spans), path)
	ops := warm.ops
	ops.add(base.ops)
	ops.add(tr.ops)
	return report(m, ops, warm.noFresh+base.noFresh+tr.noFresh, problems), nil
}

// readRuntime reads the runtime/metrics samples the benchmark reports.
func readRuntime() map[string]float64 {
	samples := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}
