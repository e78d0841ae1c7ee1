package main

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/protocol"
	"repro/internal/server"
)

// kChecks and countChecks are the number of fresh cloaks and public counts
// the oracles check once the timed window is over.
const (
	kChecks     = 200
	countChecks = 16
)

func ids(objs []server.PublicObject) []uint64 {
	out := make([]uint64, len(objs))
	for i, o := range objs {
		out[i] = o.ID
	}
	return out
}

// verify runs every oracle once all updates are acknowledged: the answers
// kept during the window, fresh cloaks against the last acknowledged
// positions, public counts against the forwarded regions, and the ledger
// of acknowledged, forwarded and stored updates.
func verify(st *stack, in *inputs, ranges []rangeSample, nns []nnSample) ([]string, error) {
	var problems []string
	check := func(err error) {
		if err != nil && len(problems) < 20 {
			problems = append(problems, err.Error())
		}
	}
	ix := newObjectIndex(in.objs)
	for _, s := range ranges {
		check(ix.checkRange(s.exact, s.region, s.radius, s.class, ids(s.got)))
	}
	for _, s := range nns {
		check(ix.checkNN(s.exact, s.class, ids(s.got)))
	}

	w := in.w
	ac, err := protocol.DialAnonymizer(st.anonAddr, protocol.WithCallTimeout(callTimeout))
	if err != nil {
		return nil, err
	}
	defer ac.Close()
	for i := uint64(0); i < kChecks; i++ {
		id := mix(in.seed^i)%uint64(w.users) + 1
		loc := in.lastPos[id-1]
		res, err := ac.CloakQuery(id, loc)
		if err != nil {
			return nil, fmt.Errorf("cloak query of user %d: %w", id, err)
		}
		st.acked++
		check(checkCloak(loc, res.Region, w.kOf(in.seed, id), in.lastPos))
	}

	db, err := protocol.DialDatabase(st.dbAddr, protocol.WithCallTimeout(callTimeout))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	st.hook.mu.Lock()
	regions := append([]geo.Rect(nil), st.hook.regions...)
	st.hook.mu.Unlock()
	side := w.countSide
	if side == 0 {
		side = 0.1
	}
	r := rnd{s: in.seed ^ 0xc0c0}
	for i := 0; i < countChecks; i++ {
		q := geo.RectAround(geo.Pt(r.between(side/2, 1-side/2), r.between(side/2, 1-side/2)), side/2)
		res, err := db.PublicCount(q)
		if err != nil {
			return nil, fmt.Errorf("public count: %w", err)
		}
		a := res.Answer
		check(checkCount(recount(regions, q), a.Lo, a.Hi, a.Expected))
	}

	s := st.anon.Stats()
	check(checkLedger(st.acked, st.hook.stored, s.Forwarded, s.ForwardErrs, s.Dropped, s.QueueDepth))
	// Every user's region is stored, and wherever it is stored it is the
	// last region forwarded.
	for id := uint64(1); id <= uint64(w.users); id++ {
		held := 0
		for _, srv := range st.srvs {
			if got, ok := srv.PrivateRegion(id); ok {
				held++
				if got != regions[id-1] {
					check(fmt.Errorf("ledger: user %d stored as %v, last forwarded %v", id, got, regions[id-1]))
				}
			}
		}
		if held == 0 {
			check(fmt.Errorf("ledger: user %d's region is not stored", id))
		}
	}
	resident := st.srvs[0].PrivateUserCount()
	if st.rt != nil {
		resident = st.rt.PrivateUserCount()
	}
	if resident != w.users {
		check(fmt.Errorf("ledger: %d resident users, %d registered", resident, w.users))
	}
	return problems, nil
}
