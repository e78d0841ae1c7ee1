package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/protocol"
	"repro/internal/server"
)

// opKind is a kind of operation in the attempted/failed table. Batch
// frames count one operation per entry.
type opKind int

const (
	opUpdate opKind = iota
	opBatchUpdate
	opCloakQuery
	opPrivateRange
	opPrivateNN
	opPublicCount
	nKinds
)

var kindNames = [nKinds]string{"update", "batch_update", "cloak_query", "private_range", "private_nn", "public_count"}

type tally struct {
	attempted, failed [nKinds]uint64
}

func (t *tally) add(o tally) {
	for k := range t.attempted {
		t.attempted[k] += o.attempted[k]
		t.failed[k] += o.failed[k]
	}
}

func (t tally) totals() (attempted, failed uint64) {
	for k := range t.attempted {
		attempted += t.attempted[k]
		failed += t.failed[k]
	}
	return attempted, failed
}

// cloakRec is a cloak client 1 obtained and client 2 queries with: the
// user's exact point and requested k, the region, and the cloak's hop.
type cloakRec struct {
	id     uint64
	exact  geo.Point
	k      int
	region geo.Rect
	hop    time.Duration
}

// feed hands client 1's cloaks to client 2. A taker gets the newest
// cloaks it has not had yet; when there are too few, the rest are drawn
// from the last len(ring) cloaks and counted as not fresh.
type feed struct {
	mu   sync.Mutex
	ring []cloakRec
	puts uint64 // cloaks ever put
	read uint64 // cloaks ever taken fresh
}

func newFeed() *feed { return &feed{ring: make([]cloakRec, 4096)} }

func (f *feed) put(recs ...cloakRec) {
	f.mu.Lock()
	for _, r := range recs {
		f.ring[f.puts%uint64(len(f.ring))] = r
		f.puts++
	}
	f.mu.Unlock()
}

func (f *feed) take(n int, r *rnd, out []cloakRec) ([]cloakRec, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out = out[:0]
	size := uint64(len(f.ring))
	if f.puts-f.read > uint64(n) {
		f.read = f.puts - uint64(n)
	}
	for f.read < f.puts {
		out = append(out, f.ring[f.read%size])
		f.read++
	}
	fresh := len(out)
	avail := min(f.puts, size)
	for len(out) < n {
		out = append(out, f.ring[(f.puts-1-uint64(r.intn(int(avail))))%size])
	}
	return out, fresh
}

// rangeSample and nnSample are answers kept for the oracles.
type rangeSample struct {
	exact  geo.Point
	region geo.Rect
	radius float64
	class  string
	got    []server.PublicObject
}

type nnSample struct {
	exact geo.Point
	class string
	got   []server.PublicObject
}

// sampleEvery is how often an answer is kept for the oracles, and
// mirrorEvery how often the traced run repeats a call in process.
const (
	sampleEvery = 8
	maxSamples  = 300
	mirrorEvery = 4
)

// windowResult is what both clients saw in one timed window.
type windowResult struct {
	ops                tally
	upd, qry           callLog
	updates, queries   uint64 // acknowledged update entries, answered query entries
	updSecs, qrySecs   float64
	candidates, privOK uint64 // objects returned over answered private entries
	noFresh            uint64 // query entries that reused an already-queried cloak
	cloaks             uint64
	areaSum, kRatioSum float64
	ranges             []rangeSample
	nns                []nnSample
	problems           []string
}

type client1 struct {
	t0  time.Time // the window's start
	st  *stack
	in  *inputs
	fd  *feed
	rec *recorder
	out windowResult
}

type client2 struct {
	t0  time.Time // the window's start
	st  *stack
	in  *inputs
	fd  *feed
	rec *recorder
	r   rnd
	out windowResult
}

func (o *windowResult) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runWindow runs both clients for d, then lets each finish its round.
func runWindow(st *stack, in *inputs, fd *feed, d time.Duration, rec *recorder) (windowResult, error) {
	var stop atomic.Bool
	c1 := &client1{st: st, in: in, fd: fd, rec: rec}
	c2 := &client2{st: st, in: in, fd: fd, rec: rec, r: rnd{s: in.seed ^ 0xc2c2}}
	st.hook.rec.Store(rec)
	defer st.hook.rec.Store(nil)
	var wg sync.WaitGroup
	var err1, err2 error
	ready := make(chan struct{})
	wg.Add(2)
	go func() { defer wg.Done(); err1 = c1.run(ready, &stop) }()
	go func() { defer wg.Done(); err2 = c2.run(ready, &stop) }()
	c1.t0 = time.Now()
	c2.t0 = c1.t0
	close(ready)
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	if err1 != nil {
		return windowResult{}, err1
	}
	if err2 != nil {
		return windowResult{}, err2
	}
	w := c1.out
	w.ops.add(c2.out.ops)
	w.qry, w.queries, w.qrySecs = c2.out.qry, c2.out.queries, c2.out.qrySecs
	w.candidates, w.privOK, w.noFresh = c2.out.candidates, c2.out.privOK, c2.out.noFresh
	w.ranges, w.nns = c2.out.ranges, c2.out.nns
	w.problems = append(w.problems, c2.out.problems...)
	return w, nil
}

func (c *client1) run(ready <-chan struct{}, stop *atomic.Bool) error {
	ac, err := protocol.DialAnonymizer(c.st.anonAddr, protocol.WithCallTimeout(callTimeout))
	if err != nil {
		return err
	}
	defer ac.Close()
	<-ready
	if c.in.w.updateBatch > 0 {
		c.batches(ac, stop)
	} else {
		c.singles(ac, stop)
	}
	c.out.updSecs = time.Since(c.t0).Seconds()
	return nil
}

// accept books one acknowledged location update and checks its cloak.
func (c *client1) accept(id uint64, loc geo.Point, res cloak.Result) {
	c.st.acked++
	c.in.lastPos[id-1] = loc
	if !inRect(loc.X, loc.Y, res.Region) {
		c.out.problem("cloak %v misses user %d at %v", res.Region, id, loc)
	}
	c.out.cloaks++
	c.out.areaSum += res.Region.Area()
	c.out.kRatioSum += float64(res.K) / float64(c.in.w.kOf(c.in.seed, id))
}

// begin opens a client span and makes it the parent of the forwards the
// call causes.
func (c *client1) begin() uint64 {
	if c.rec == nil {
		return 0
	}
	id := c.rec.newID()
	c.rec.parent.Store(id)
	return id
}

// singles is a round of nine Update calls and one CloakQuery for the last
// user updated, at the position just acknowledged.
func (c *client1) singles(ac *protocol.AnonymizerClient, stop *atomic.Bool) {
	n := 0
	for !stop.Load() {
		var id uint64
		var loc geo.Point
		ok := false
		for i := 0; i < 9; i++ {
			id, loc = c.in.next()
			c.out.ops.attempted[opUpdate]++
			cid := c.begin()
			t0 := time.Now()
			res, err := ac.Update(id, loc)
			dt := time.Since(t0)
			if c.rec != nil {
				c.rec.record("client.update", cid, 0, 1, t0)
			}
			if ok = err == nil; !ok {
				c.out.ops.failed[opUpdate]++
				continue
			}
			c.out.upd.add(time.Since(c.t0), dt, 1)
			c.out.updates++
			c.accept(id, loc, res)
			if n++; c.rec != nil && n%mirrorEvery == 0 {
				c.mirrorUpdate(cid, id, loc)
			}
		}
		if !ok {
			continue
		}
		c.out.ops.attempted[opCloakQuery]++
		cid := c.begin()
		t0 := time.Now()
		res, err := ac.CloakQuery(id, loc)
		hop := time.Since(t0)
		if c.rec != nil {
			c.rec.record("client.cloak_query", cid, 0, 1, t0)
		}
		if err != nil {
			c.out.ops.failed[opCloakQuery]++
			continue
		}
		c.accept(id, loc, res)
		c.fd.put(cloakRec{id: id, exact: loc, k: c.in.w.kOf(c.in.seed, id), region: res.Region, hop: hop})
		if c.rec != nil {
			mid := c.rec.newID()
			c.rec.parent.Store(mid)
			t1 := time.Now()
			res, err := c.st.anon.CloakQuery(id, loc)
			c.rec.recordMirror("anonymizer.CloakQuery", mid, 0, cid, 1, t1)
			c.inProcess(err, id, loc, res)
		}
	}
}

// inProcess books an update the traced run repeated in process.
func (c *client1) inProcess(err error, id uint64, loc geo.Point, res cloak.Result) {
	if err != nil {
		c.out.problem("in-process update of user %d: %v", id, err)
		return
	}
	c.st.acked++
	if !inRect(loc.X, loc.Y, res.Region) {
		c.out.problem("in-process cloak %v misses user %d at %v", res.Region, id, loc)
	}
}

// mirrorUpdate repeats an acknowledged update in process: through the
// anonymizer (which forwards again), then the database write of the
// region it stored.
func (c *client1) mirrorUpdate(cid, id uint64, loc geo.Point) {
	mid := c.rec.newID()
	c.rec.parent.Store(mid)
	t0 := time.Now()
	res, err := c.st.anon.Update(id, loc)
	c.rec.recordMirror("anonymizer.Update", mid, 0, cid, 1, t0)
	c.inProcess(err, id, loc, res)
	c.mirrorUpdatePrivate(cid, id)
}

// mirrorUpdatePrivate times two in-process writes of user id's region on
// a server that holds it: one moving it to its lower-left quarter, one
// moving it back. Rewriting an unchanged region would skip the index
// work a forwarded update pays for.
func (c *client1) mirrorUpdatePrivate(cid, id uint64) {
	region := c.st.hook.region(id)
	moved := geo.Rect{Min: region.Min, Max: region.Center()}
	for _, srv := range c.st.srvs {
		if r, ok := srv.PrivateRegion(id); !ok || r != region {
			continue
		}
		for _, to := range []geo.Rect{moved, region} {
			t0 := time.Now()
			err := srv.UpdatePrivate(id, to)
			c.rec.recordMirror("server.UpdatePrivate", c.rec.newID(), 0, cid, 1, t0)
			if err != nil {
				c.out.problem("in-process UpdatePrivate of user %d: %v", id, err)
			}
		}
		return
	}
	c.out.problem("no server holds user %d's last forwarded region", id)
}

// batches sends BatchUpdate frames of distinct users.
func (c *client1) batches(ac *protocol.AnonymizerClient, stop *atomic.Bool) {
	b := c.in.w.updateBatch
	reqs := make([]cloak.Request, b)
	recs := make([]cloakRec, 0, b)
	for !stop.Load() {
		for i := range reqs {
			id, loc := c.in.next()
			reqs[i] = cloak.Request{ID: id, Loc: loc}
		}
		c.out.ops.attempted[opBatchUpdate] += uint64(b)
		cid := c.begin()
		t0 := time.Now()
		res, err := ac.BatchUpdate(reqs)
		dt := time.Since(t0)
		if c.rec != nil {
			c.rec.record("client.batch_update", cid, 0, b, t0)
		}
		if err != nil {
			c.out.ops.failed[opBatchUpdate] += uint64(b)
			continue
		}
		recs = recs[:0]
		acked := 0
		for i, r := range reqs {
			if i >= len(res) || res[i] == nil {
				c.out.ops.failed[opBatchUpdate]++
				continue
			}
			acked++
			c.out.updates++
			c.accept(r.ID, r.Loc, *res[i])
			if k := c.in.w.kOf(c.in.seed, r.ID); k >= c.in.w.queryK {
				recs = append(recs, cloakRec{id: r.ID, exact: r.Loc, k: k, region: res[i].Region})
			}
		}
		c.out.upd.add(time.Since(c.t0), dt, acked)
		c.fd.put(recs...)
		// Update frames are few and long, so the traced run repeats every
		// one of them.
		if c.rec != nil {
			mid := c.rec.newID()
			c.rec.parent.Store(mid)
			t1 := time.Now()
			res := c.st.anon.BatchUpdate(reqs)
			c.rec.recordMirror("anonymizer.BatchUpdate", mid, 0, cid, b, t1)
			for i, r := range reqs {
				if i >= len(res) || res[i] == nil {
					c.out.problem("in-process batch update of user %d refused", r.ID)
					continue
				}
				c.inProcess(nil, r.ID, r.Loc, *res[i])
			}
			c.mirrorUpdatePrivate(cid, reqs[0].ID)
		}
	}
}

func (c *client2) run(ready <-chan struct{}, stop *atomic.Bool) error {
	db, err := protocol.DialDatabase(c.st.dbAddr, protocol.WithCallTimeout(callTimeout))
	if err != nil {
		return err
	}
	defer db.Close()
	<-ready
	if c.in.w.queryBatch > 0 {
		c.batches(db, stop)
	} else {
		c.singles(db, stop)
	}
	c.out.qrySecs = time.Since(c.t0).Seconds()
	return nil
}

func (c *client2) classOf() string {
	return c.in.w.classes[c.r.intn(len(c.in.w.classes))].Name
}

// answered books one answered private entry and keeps every
// sampleEvery-th for the oracles.
func (c *client2) answered(rc cloakRec, e server.BatchEntry, objs []server.PublicObject) {
	c.out.queries++
	c.out.privOK++
	c.out.candidates += uint64(len(objs))
	if c.out.privOK%sampleEvery != 0 {
		return
	}
	switch e.Kind {
	case server.BatchPrivateRange:
		if len(c.out.ranges) < maxSamples {
			c.out.ranges = append(c.out.ranges, rangeSample{exact: rc.exact, region: e.Range.Region, radius: e.Range.Radius, class: e.Range.Class, got: objs})
		}
	case server.BatchPrivateNN:
		if len(c.out.nns) < maxSamples {
			c.out.nns = append(c.out.nns, nnSample{exact: rc.exact, class: e.NN.Class, got: objs})
		}
	}
}

// privateEntry is the query client 2 asks with cloak rc: a private range
// or, alternately unless the workload asks ranges only, a private NN.
func (c *client2) privateEntry(rc cloakRec, i int) server.BatchEntry {
	w := c.in.w
	if w.rangeOnly || i%2 == 0 {
		return server.BatchEntry{Kind: server.BatchPrivateRange,
			Range: server.PrivateRangeQuery{Region: rc.region, Radius: c.r.between(w.radiusLo, w.radiusHi), Class: c.classOf()}}
	}
	return server.BatchEntry{Kind: server.BatchPrivateNN, NN: server.PrivateNNQuery{Region: rc.region, Class: c.classOf()}}
}

func kindOf(e server.BatchEntry) opKind {
	switch e.Kind {
	case server.BatchPrivateRange:
		return opPrivateRange
	case server.BatchPrivateNN:
		return opPrivateNN
	}
	return opPublicCount
}

// singles sends one PrivateRange or PrivateNN call per round, over the
// newest cloak client 1 obtained.
func (c *client2) singles(db *protocol.DatabaseClient, stop *atomic.Bool) {
	buf := make([]cloakRec, 0, 1)
	srv := c.st.srvs[0]
	for i := 0; !stop.Load(); i++ {
		recs, fresh := c.fd.take(1, &c.r, buf)
		if fresh == 0 {
			c.out.noFresh++
		}
		rc := recs[0]
		e := c.privateEntry(rc, i)
		k := kindOf(e)
		c.out.ops.attempted[k]++
		var cid uint64
		if c.rec != nil {
			cid = c.rec.newID()
		}
		var objs []server.PublicObject
		var err error
		t0 := time.Now()
		if k == opPrivateRange {
			objs, err = db.PrivateRange(e.Range)
		} else {
			var res server.PrivateNNResult
			res, err = db.PrivateNN(e.NN)
			objs = res.Candidates
		}
		dt := time.Since(t0)
		if c.rec != nil {
			c.rec.record("client."+kindNames[k], cid, 0, 1, t0)
		}
		if err != nil {
			c.out.ops.failed[k]++
			continue
		}
		c.out.qry.add(time.Since(c.t0), rc.hop+dt, 1)
		c.answered(rc, e, objs)
		if c.rec != nil && i%(2*mirrorEvery) < 2 {
			c.mirrorPrivate(cid, srv, e)
		}
	}
}

// mirrorPrivate repeats one private entry in process on srv.
func (c *client2) mirrorPrivate(cid uint64, srv *server.Server, e server.BatchEntry) {
	t0 := time.Now()
	var err error
	name := "server.PrivateRange"
	if e.Kind == server.BatchPrivateRange {
		_, err = srv.PrivateRange(e.Range)
	} else {
		name = "server.PrivateNN"
		_, err = srv.PrivateNN(e.NN)
	}
	c.rec.recordMirror(name, c.rec.newID(), 0, cid, 1, t0)
	if err != nil {
		c.out.problem("in-process %s: %v", name, err)
	}
}

// countLattice is the side of the lattice count centres cycle through.
const countLattice = 8

// countCenter is the centre of the i-th count square: a random point in
// the next cell of a lattice over the centres' range, visited in row
// order. Every run thus spreads its counts evenly over the city, and the
// mean cost of a count depends on the city, not on where a few hundred
// random squares happened to fall.
func (c *client2) countCenter(i int, half float64) geo.Point {
	cell := i % (countLattice * countLattice)
	step := (1 - 2*half) / countLattice
	x := half + step*(float64(cell%countLattice)+c.r.float())
	y := half + step*(float64(cell/countLattice)+c.r.float())
	return geo.Pt(x, y)
}

// batches sends BatchQuery frames: fixed-size public counts first, then
// private entries over the newest cloaks.
func (c *client2) batches(db *protocol.DatabaseClient, stop *atomic.Bool) {
	w := c.in.w
	nPriv := w.queryBatch - w.countsPerBatch
	buf := make([]cloakRec, 0, nPriv)
	entries := make([]server.BatchEntry, 0, w.queryBatch)
	ctx := context.Background()
	half := w.countSide / 2
	counts := 0
	for frames := 1; !stop.Load(); frames++ {
		recs, fresh := c.fd.take(nPriv, &c.r, buf)
		c.out.noFresh += uint64(nPriv - fresh)
		entries = entries[:0]
		for i := 0; i < w.countsPerBatch; i++ {
			entries = append(entries, server.BatchEntry{Kind: server.BatchPublicCount,
				Count: server.PublicRangeCountQuery{Query: geo.RectAround(c.countCenter(counts, half), half)}})
			counts++
		}
		for i, rc := range recs {
			entries = append(entries, c.privateEntry(rc, i))
		}
		for _, e := range entries {
			c.out.ops.attempted[kindOf(e)]++
		}
		var cid uint64
		if c.rec != nil {
			cid = c.rec.newID()
		}
		t0 := time.Now()
		res, err := db.BatchQuery(entries)
		dt := time.Since(t0)
		if c.rec != nil {
			c.rec.record("client.batch_query", cid, 0, len(entries), t0)
		}
		if err != nil || len(res.Items) != len(entries) {
			for _, e := range entries {
				c.out.ops.failed[kindOf(e)]++
			}
			continue
		}
		answered := c.out.queries
		for i, it := range res.Items {
			e := entries[i]
			if it.Err != nil {
				c.out.ops.failed[kindOf(e)]++
				continue
			}
			switch e.Kind {
			case server.BatchPublicCount:
				c.out.queries++
				a := it.Count.Answer
				if a.Lo > a.Hi || a.Expected < float64(a.Lo)-eps || a.Expected > float64(a.Hi)+eps || a.Hi > w.users {
					c.out.problem("count over %v answered %v", e.Count.Query, a)
				}
			case server.BatchPrivateRange:
				c.answered(recs[i-w.countsPerBatch], e, it.Range)
			case server.BatchPrivateNN:
				c.answered(recs[i-w.countsPerBatch], e, it.NN.Candidates)
			}
		}
		c.out.qry.add(time.Since(c.t0), dt, int(c.out.queries-answered))
		if c.rec == nil || frames%mirrorEvery != 0 {
			continue
		}
		if c.st.rt != nil {
			t1 := time.Now()
			_, err := c.st.rt.BatchQueryCtx(ctx, entries)
			c.rec.recordMirror("router.BatchQueryCtx", c.rec.newID(), 0, cid, len(entries), t1)
			if err != nil {
				c.out.problem("in-process router batch: %v", err)
			}
			if w.countsPerBatch > 0 {
				for _, srv := range c.st.srvs {
					t2 := time.Now()
					if _, err := srv.PublicRangeCount(entries[0].Count); err != nil {
						c.out.problem("in-process PublicRangeCount: %v", err)
					}
					c.rec.recordMirror("server.PublicRangeCount", c.rec.newID(), 0, cid, 1, t2)
				}
			}
			continue
		}
		srv := c.st.srvs[0]
		t1 := time.Now()
		srv.BatchQuery(entries)
		c.rec.recordMirror("server.BatchQuery", c.rec.newID(), 0, cid, len(entries), t1)
		c.mirrorPrivate(cid, srv, entries[w.countsPerBatch])
		if nPriv > 1 {
			c.mirrorPrivate(cid, srv, entries[w.countsPerBatch+1])
		}
	}
}
