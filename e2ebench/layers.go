package main

import (
	"fmt"
	"slices"

	"repro/internal/anonymizer"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// snapshot holds the counters the per-layer metrics difference across
// the traced window, read from the layers' public snapshots and obs
// registries.
type snapshot struct {
	acked, stored uint64
	anon          anonymizer.Stats
	// anon_cloak_seconds.
	cloakSecs float64
	cloakN    uint64
	// Sums over every server.
	batchEntries, batchShared uint64
	nnCandSum, visitSum       float64
	nnCandN, visitN           uint64
	// Shard-batch frames the servers' services answered, and the time
	// they spent on them.
	shardFrames    float64
	shardFrameSecs float64
}

var shardBatch = protocol.MessageName(protocol.MsgShardBatch)

func takeSnapshot(st *stack) snapshot {
	s := snapshot{acked: st.acked, anon: st.anon.Stats()}
	st.hook.mu.Lock()
	s.stored = st.hook.stored
	st.hook.mu.Unlock()
	s.cloakSecs, s.cloakN = histogram(st.anonReg, "anon_cloak_seconds", "")
	for i, srv := range st.srvs {
		m := srv.Metrics()
		s.batchEntries += m.BatchEntries
		s.batchShared += m.BatchSharedHits
		sum, n := histogram(st.srvRegs[i], "lbs_private_nn_candidates", "")
		s.nnCandSum, s.nnCandN = s.nnCandSum+sum, s.nnCandN+n
		sum, n = histogram(st.srvRegs[i], "lbs_index_node_visits", "")
		s.visitSum, s.visitN = s.visitSum+sum, s.visitN+n
		s.shardFrames += counter(st.svcRegs[i], "proto_requests_total", shardBatch)
		sum, _ = histogram(st.svcRegs[i], "proto_request_seconds", shardBatch)
		s.shardFrameSecs += sum
	}
	return s
}

// histogram sums the sum and count of every series named name that
// carries a label with value label ("" matches any series).
func histogram(reg *obs.Registry, name, label string) (float64, uint64) {
	var sum float64
	var n uint64
	for _, s := range reg.Export() {
		if s.Name == name && s.Kind == obs.KindHistogram && hasLabel(s, label) {
			sum += s.Hist.Sum
			n += s.Hist.Count()
		}
	}
	return sum, n
}

func counter(reg *obs.Registry, name, label string) float64 {
	var v float64
	for _, s := range reg.Export() {
		if s.Name == name && s.Kind == obs.KindCounter && hasLabel(s, label) {
			v += s.Value
		}
	}
	return v
}

func hasLabel(s obs.MetricSnapshot, value string) bool {
	if value == "" {
		return true
	}
	for _, l := range s.Labels {
		if l.Value == value {
			return true
		}
	}
	return false
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	n, entries int
	dur, self  int64 // ns
}

// ratio is a per-layer value with its base, printed in the table.
type ratio struct {
	name, unit string
	num, base  float64
	baseName   string
}

// perLayer derives the per-layer metrics. Times come from the traced
// window's spans, counts from snapshots around it, and runtime figures
// from the untraced window.
func perLayer(st *stack, spans []span, s0, s1 snapshot, base, tr windowResult, rt0, rt1 map[string]float64) map[string]metric {
	byID := make(map[uint64]span, len(spans))
	children := make(map[uint64]int64)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	agg := map[string]*spanStats{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &spanStats{}
			agg[s.Name] = a
		}
		a.n++
		a.entries += s.Entries
		a.dur += s.dur()
		a.self += s.dur() - children[s.ID]
	}
	// wire pairs a client span with its in-process repeat and returns the
	// sum of their differences in self time: forwards are excluded on
	// both sides, since a repeat's forwards rewrite regions the database
	// already holds.
	self := func(s span) int64 { return s.dur() - children[s.ID] }
	wire := func(client string, inproc ...string) (float64, int) {
		var sum int64
		n := 0
		for _, s := range spans {
			c, ok := byID[s.Mirror]
			if !ok || c.Name != client || !slices.Contains(inproc, s.Name) {
				continue
			}
			sum += self(c) - self(s)
			n++
		}
		return float64(sum), n
	}
	get := func(name string) *spanStats {
		if a := agg[name]; a != nil {
			return a
		}
		return &spanStats{}
	}

	acked := float64(s1.acked - s0.acked)
	var rs []ratio
	add := func(name, unit string, num, base float64, baseName string) {
		rs = append(rs, ratio{name, unit, num, base, baseName})
	}
	us := func(ns float64) float64 { return ns / 1e3 }

	uw1, un1 := wire("client.update", "anonymizer.Update")
	uw2, un2 := wire("client.batch_update", "anonymizer.BatchUpdate")
	add("protocol.update_wire_us", "us", us(uw1+uw2), float64(un1+un2), "update calls repeated in process")
	qw1, qn1 := wire("client.private_range", "server.PrivateRange")
	qw2, qn2 := wire("client.private_nn", "server.PrivateNN")
	qw3, qn3 := wire("client.batch_query", "server.BatchQuery", "router.BatchQueryCtx")
	add("protocol.query_wire_us", "us", us(qw1+qw2+qw3), float64(qn1+qn2+qn3), "query calls repeated in process")
	add("protocol.forward_calls_per_update", "ratio", float64(s1.stored-s0.stored), acked, "acknowledged location updates")
	add("protocol.forward_us_per_update", "us", us(float64(get("forward").dur)), acked, "acknowledged location updates")

	a := get("anonymizer.Update")
	add("anonymizer.update_us", "us", us(float64(a.self)), float64(a.n), "in-process Update calls, forwards excluded")
	a = get("anonymizer.CloakQuery")
	add("anonymizer.cloak_query_us", "us", us(float64(a.self)), float64(a.n), "in-process CloakQuery calls, forwards excluded")
	a = get("anonymizer.BatchUpdate")
	add("anonymizer.batch_us_per_entry", "us", us(float64(a.self)), float64(a.entries), "entries of in-process BatchUpdate calls, forwards excluded")
	batchEntries := 0.0
	if s1.anon.Batches > s0.anon.Batches {
		batchEntries = float64(s1.anon.Updates - s0.anon.Updates)
	}
	add("anonymizer.shared_hits_per_entry", "ratio", float64(s1.anon.SharedHits-s0.anon.SharedHits), batchEntries, "batched update entries")

	add("cloak.cloak_us", "us", (s1.cloakSecs-s0.cloakSecs)*1e6, float64(s1.cloakN-s0.cloakN), "anon_cloak_seconds observations")
	cloaks := float64(base.cloaks + tr.cloaks)
	add("cloak.area_mean", "area", base.areaSum+tr.areaSum, cloaks, "cloaks received")
	add("cloak.k_over_requested", "ratio", base.kRatioSum+tr.kRatioSum, cloaks, "cloaks received")

	a = get("server.UpdatePrivate")
	add("server.update_private_us", "us", us(float64(a.dur)), float64(a.n), "in-process UpdatePrivate calls, each moving a region")
	a = get("server.PrivateRange")
	add("server.private_range_us", "us", us(float64(a.dur)), float64(a.n), "in-process PrivateRange calls")
	a = get("server.PrivateNN")
	add("server.private_nn_us", "us", us(float64(a.dur)), float64(a.n), "in-process PrivateNN calls")
	// Query entries that went through the router, from the client or in
	// process.
	routed := 0.0
	if st.rt == nil {
		a = get("server.BatchQuery")
		add("server.batch_us_per_entry", "us", us(float64(a.dur)), float64(a.entries), "entries of in-process BatchQuery calls")
	} else {
		routed = float64(get("client.batch_query").entries + get("router.BatchQueryCtx").entries)
		add("server.batch_us_per_entry", "us", (s1.shardFrameSecs-s0.shardFrameSecs)*1e6, routed, "routed entries (shard-batch handler time)")
	}
	add("server.batch_shared_hits_per_entry", "ratio", float64(s1.batchShared-s0.batchShared), float64(s1.batchEntries-s0.batchEntries), "entries through Server.BatchQuery")
	a = get("server.PublicRangeCount")
	add("server.public_count_us", "us", us(float64(a.dur)), float64(a.n), "in-process PublicRangeCount calls, one per shard")
	add("server.nn_candidates_mean", "count", s1.nnCandSum-s0.nnCandSum, float64(s1.nnCandN-s0.nnCandN), "private NN answers")
	add("server.index_node_visits_mean", "count", s1.visitSum-s0.visitSum, float64(s1.visitN-s0.visitN), "index searches")

	a = get("router.BatchQueryCtx")
	add("router.batch_us_per_entry", "us", us(float64(a.dur)), float64(a.entries), "entries of in-process BatchQueryCtx calls, shard round trips included")
	add("router.shard_frames_per_entry", "ratio", s1.shardFrames-s0.shardFrames, routed, "routed query entries")
	replicas, residents := 0.0, 0.0
	if st.rt != nil {
		for _, srv := range st.srvs {
			replicas += float64(srv.PrivateUserCount())
		}
		residents = float64(st.rt.PrivateUserCount())
	}
	add("router.region_replicas_per_user", "ratio", replicas, residents, "users resident behind the router")

	ops, _ := base.ops.totals()
	add("runtime.allocs_per_op", "count", rt1["/gc/heap/allocs:objects"]-rt0["/gc/heap/allocs:objects"], float64(ops), "operations, untraced window")
	add("runtime.alloc_bytes_per_op", "B", rt1["/gc/heap/allocs:bytes"]-rt0["/gc/heap/allocs:bytes"], float64(ops), "operations, untraced window")
	add("runtime.gc_cpu_fraction", "ratio", rt1["/cpu/classes/gc/total:cpu-seconds"]-rt0["/cpu/classes/gc/total:cpu-seconds"],
		rt1["/cpu/classes/total:cpu-seconds"]-rt0["/cpu/classes/total:cpu-seconds"], "CPU seconds, untraced window")
	add("trace.overhead_pct", "%", 100*(throughput(base)-throughput(tr)), throughput(base), "untraced entries/s")

	fmt.Printf("%-36s %12s  %s\n", "per-layer metric", "value", "base")
	m := make(map[string]metric, len(rs))
	for _, r := range rs {
		v := 0.0
		if r.base > 0 {
			v = r.num / r.base
		}
		m[r.name] = metric{v, r.unit}
		fmt.Printf("%-36s %12.6g  %s over %.6g %s\n", r.name, v, r.unit, r.base, r.baseName)
	}
	return m
}

// throughput is the entries a window acknowledged or answered per second.
func throughput(w windowResult) float64 {
	return float64(w.updates)/w.updSecs + float64(w.queries)/w.qrySecs
}
