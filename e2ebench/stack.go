package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/server"
)

// citySeed fixes the city's geography: its clusters and their
// popularity. The run's seed draws the population that moves through it,
// the profiles, the public objects and the queries, so runs with
// different seeds differ in their inputs but not in the kind of city a
// figure describes.
const citySeed = 2006

// callTimeout bounds every client call; no healthy call comes near it.
const callTimeout = 30 * time.Second

var world = geo.R(0, 0, 1, 1)

// stack is the three-tier system booted in this process from its exported
// constructors, every tier behind its own loopback TCP service.
type stack struct {
	anon    *anonymizer.Anonymizer
	anonReg *obs.Registry
	// srvs are the single lbsd, or the shards behind the router; srvRegs
	// hold their lbs_* series and svcRegs their services' proto_* series.
	srvs    []*server.Server
	srvRegs []*obs.Registry
	svcRegs []*obs.Registry
	rt      *router.Router // nil without a routing tier
	hook    *forwardHook

	anonAddr, dbAddr string
	closers          []func() error

	// acked counts location updates acknowledged over the stack's life:
	// update entries and cloak queries, since both forward a region.
	acked uint64
}

// forwardHook is the anonymizer's Forward: it sends each cloaked region to
// the database tier over the wire and keeps the benchmark's own record of
// the last region stored per user.
type forwardHook struct {
	db  *protocol.DatabaseClient
	rec atomic.Pointer[recorder] // nil outside the traced window

	mu      sync.Mutex
	regions []geo.Rect // by user id - 1
	stored  uint64
}

func (h *forwardHook) forward(id uint64, region geo.Rect) error {
	rec := h.rec.Load()
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	err := h.db.UpdatePrivate(id, region)
	if rec != nil {
		rec.record("forward", rec.newID(), rec.parent.Load(), 1, start)
	}
	if err != nil {
		return err
	}
	h.mu.Lock()
	if id >= 1 && id <= uint64(len(h.regions)) {
		h.regions[id-1] = region
	}
	h.stored++
	h.mu.Unlock()
	return nil
}

// region is the last region stored for user id.
func (h *forwardHook) region(id uint64) geo.Rect {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.regions[id-1]
}

func quiet(string, ...interface{}) {}

// boot starts the database tier (one lbsd, or lbsd shards behind an
// lbsrouter) and the anonymizer forwarding to it.
func boot(w workload) (*stack, error) {
	st := &stack{}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}
	n := max(1, w.shards)
	var addrs []string
	for i := 0; i < n; i++ {
		reg, svcReg := obs.NewRegistry(), obs.NewRegistry()
		srv, err := server.New(server.Config{World: world, Metrics: reg})
		if err != nil {
			return fail(err)
		}
		svc, err := protocol.ServeDatabase("127.0.0.1:0", srv, quiet, protocol.WithMetrics(svcReg))
		if err != nil {
			return fail(err)
		}
		st.closers = append(st.closers, svc.Close)
		st.srvs = append(st.srvs, srv)
		st.srvRegs = append(st.srvRegs, reg)
		st.svcRegs = append(st.svcRegs, svcReg)
		addrs = append(addrs, svc.Addr())
	}
	st.dbAddr = addrs[0]
	if w.shards > 0 {
		links := make([]router.Shard, 0, n)
		for _, a := range addrs {
			link, err := protocol.DialDatabase(a, protocol.WithCallTimeout(callTimeout))
			if err != nil {
				return fail(err)
			}
			st.closers = append(st.closers, link.Close)
			links = append(links, link)
		}
		rtReg := obs.NewRegistry()
		rt, err := router.New(router.Config{World: world, Shards: links, Addrs: addrs, Metrics: rtReg})
		if err != nil {
			return fail(err)
		}
		rtSvc, err := protocol.ServeRouter("127.0.0.1:0", rt, quiet, protocol.WithMetrics(rtReg))
		if err != nil {
			return fail(err)
		}
		st.closers = append(st.closers, rtSvc.Close)
		st.rt = rt
		st.dbAddr = rtSvc.Addr()
	}
	fwd, err := protocol.DialDatabase(st.dbAddr, protocol.WithCallTimeout(callTimeout))
	if err != nil {
		return fail(err)
	}
	st.closers = append(st.closers, fwd.Close)
	st.hook = &forwardHook{db: fwd, regions: make([]geo.Rect, w.users)}
	// The anonymizer runs with anonymizerd's defaults: one state stripe
	// and one batch worker per CPU, and a 1024-region spill queue with
	// backpressure.
	st.anonReg = obs.NewRegistry()
	st.anon, err = anonymizer.New(anonymizer.Config{
		World:               world,
		Shards:              runtime.GOMAXPROCS(0),
		Forward:             st.hook.forward,
		ForwardQueue:        1024,
		ForwardBackpressure: true,
		Metrics:             st.anonReg,
	})
	if err != nil {
		return fail(err)
	}
	st.closers = append(st.closers, func() error { st.anon.Close(); return nil })
	anonSvc, err := protocol.ServeAnonymizer("127.0.0.1:0", st.anon, quiet, protocol.WithMetrics(st.anonReg))
	if err != nil {
		return fail(err)
	}
	st.closers = append(st.closers, anonSvc.Close)
	st.anonAddr = anonSvc.Addr()
	return st, nil
}

// close stops every service and connection, newest first.
func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

// inputs are the generated inputs of one run and the benchmark's own
// record of what the stack acknowledged.
type inputs struct {
	w      workload
	seed   uint64
	objs   []object
	stream *mobility.Stream
	// lastPos is every user's last acknowledged exact position.
	lastPos []geo.Point
	// cursor walks client 1 through the users: update j moves user
	// order(j) to its position at tick j/users + 1.
	cursor uint64
}

// next returns the user and position of client 1's next update.
func (in *inputs) next() (uint64, geo.Point) {
	n := uint64(in.w.users)
	j := in.cursor
	in.cursor++
	// 48271 is prime and divides no population size used here, so the
	// walk is a permutation of the users on every pass.
	id := (j*48271+in.seed)%n + 1
	return id, in.pos(id, j/n+1)
}

// pos is user id's position at tick. Each seed draws its population from
// its own range of the city's user ids.
func (in *inputs) pos(id, tick uint64) geo.Point {
	return in.stream.Pos(in.seed<<32+id, tick, nil)
}

// setUp boots a stack and brings it to the state the timed window starts
// from: public objects loaded, every user registered over the wire with
// its profile, and every user's first location acknowledged through one
// BatchUpdate frame. The cloak feed is primed with the last cloaks seen.
func setUp(w workload, seed uint64, fd *feed) (*stack, *inputs, error) {
	st, err := boot(w)
	if err != nil {
		return nil, nil, err
	}
	in, err := setUpInputs(st, w, seed, fd)
	if err != nil {
		st.close()
		return nil, nil, err
	}
	return st, in, nil
}

func setUpInputs(st *stack, w workload, seed uint64, fd *feed) (*inputs, error) {
	gen, err := mobility.GeneratePublicObjects(world, seed, w.classes...)
	if err != nil {
		return nil, err
	}
	stream, err := mobility.NewStream(mobility.StreamSpec{World: world, Seed: citySeed, NumClusters: 256, ZipfS: 0.6})
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, stream: stream, lastPos: make([]geo.Point, w.users)}
	objs := make([]server.PublicObject, len(gen))
	in.objs = make([]object, len(gen))
	for i, o := range gen {
		objs[i] = server.PublicObject{ID: o.ID, Class: o.Class, Loc: o.Loc}
		in.objs[i] = object{id: o.ID, class: o.Class, x: o.Loc.X, y: o.Loc.Y}
	}
	db, err := protocol.DialDatabase(st.dbAddr, protocol.WithCallTimeout(callTimeout))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.LoadStationary(objs); err != nil {
		return nil, fmt.Errorf("load %d objects: %w", len(objs), err)
	}
	ac, err := protocol.DialAnonymizer(st.anonAddr, protocol.WithCallTimeout(callTimeout))
	if err != nil {
		return nil, err
	}
	defer ac.Close()
	profiles := map[int]*privacy.Profile{}
	for _, k := range w.ks {
		profiles[k] = privacy.Constant(privacy.Requirement{K: k})
	}
	for id := uint64(1); id <= uint64(w.users); id++ {
		if err := ac.Register(id, profiles[w.kOf(seed, id)]); err != nil {
			return nil, fmt.Errorf("register user %d: %w", id, err)
		}
	}
	// Every user's first location goes in one BatchUpdate frame. The
	// anonymizer places a whole frame before it cloaks any entry, so each
	// first cloak is computed over the full population. A frame sent while
	// few users were placed would get cloaks sized for a nearly empty
	// city, and the timed window would run while client 1 replaced them:
	// routed_analytics' counts overlap such regions, and its throughput
	// would climb through its first 15-20 s.
	reqs := make([]cloak.Request, w.users)
	for i := range reqs {
		id := uint64(i + 1)
		reqs[i] = cloak.Request{ID: id, Loc: in.pos(id, 0)}
	}
	res, err := ac.BatchUpdate(reqs)
	if err != nil {
		return nil, fmt.Errorf("seed locations: %w", err)
	}
	var recs []cloakRec
	for i, r := range reqs {
		if i >= len(res) || res[i] == nil {
			return nil, fmt.Errorf("seed location of user %d refused", r.ID)
		}
		if !inRect(r.Loc.X, r.Loc.Y, res[i].Region) {
			return nil, fmt.Errorf("seed cloak %v misses user %d at %v", res[i].Region, r.ID, r.Loc)
		}
		in.lastPos[r.ID-1] = r.Loc
		st.acked++
		if k := w.kOf(seed, r.ID); w.updateBatch > 0 && k >= w.queryK {
			recs = append(recs, cloakRec{id: r.ID, exact: r.Loc, k: k, region: res[i].Region})
		}
	}
	if w.updateBatch > 0 {
		fd.put(recs...)
		return in, nil
	}
	// Single-message workloads add a cloak's own hop to each query's
	// latency, so their feed starts with timed CloakQuery calls.
	for i := 0; i < 64; i++ {
		id := uint64(i)*1543%uint64(w.users) + 1
		loc := in.lastPos[id-1]
		t0 := time.Now()
		res, err := ac.CloakQuery(id, loc)
		if err != nil {
			return nil, fmt.Errorf("cloak query: %w", err)
		}
		hop := time.Since(t0)
		st.acked++
		fd.put(cloakRec{id: id, exact: loc, k: w.kOf(seed, id), region: res.Region, hop: hop})
	}
	return in, nil
}
