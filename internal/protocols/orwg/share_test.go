package orwg

import (
	"bytes"
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/flood"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/synthesis"
	"repro/internal/topology"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

// lsdb is one AD's link-state database as the wire sees it: per origin,
// ascending, the installed LSA's frame.
type lsdb [][]byte

func snapshotLSDBs(s *System) map[ad.ID]lsdb {
	out := make(map[ad.ID]lsdb)
	for _, n := range s.nodes {
		for _, origin := range s.nw.Graph.IDs() {
			l, ok := n.flooder.DB.Get(origin)
			if !ok {
				continue
			}
			out[n.id] = append(out[n.id], wire.Marshal(l))
		}
	}
	return out
}

// TestSharedLSAsAreInvisible converges the system twice on each of eight
// generated internets, once as New builds it (one table of decoded LSAs for
// the system) and once with a private table per AD, which decodes every
// copy it installs. Every LSDB, every traffic counter and the convergence
// time must agree, before and after a link failure.
func TestSharedLSAsAreInvisible(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := topology.Generate(topology.Config{
			Seed: seed, Backbones: 2, RegionalsPerBackbone: 3, MetrosPerRegional: 1,
			CampusesPerParent: 2, LateralProb: 0.2, BypassProb: 0.1,
		}).Graph
		db := policy.Generate(g, policy.GenConfig{Seed: seed + 1, SourceRestrictionProb: 0.3, SourceFraction: 0.5})
		victim := g.Links()[int(seed)%g.NumLinks()]
		type run struct {
			conv  [2]sim.Time
			stats [2]sim.Stats
			dbs   [2]map[ad.ID]lsdb
		}
		converge := func(private bool) run {
			s := New(g.Clone(), db, Config{})
			if private {
				for _, n := range s.nodes {
					n.flooder = flood.NewFlooder(n.id, flood.NewTable(g.IDs()))
					n.flooder.OnChange = n.onLSDBChange
				}
			}
			var r run
			for i := range r.conv {
				if i == 1 {
					if err := s.FailLink(victim.A, victim.B); err != nil {
						t.Fatal(err)
					}
				}
				var ok bool
				if r.conv[i], ok = s.Converge(600 * sim.Second); !ok {
					t.Fatalf("seed %d: did not converge", seed)
				}
				r.stats[i], r.dbs[i] = *s.Network().Stats, snapshotLSDBs(s)
			}
			return r
		}
		shared, private := converge(false), converge(true)
		for i, phase := range []string{"initial", "after a failure"} {
			if shared.conv[i] != private.conv[i] || shared.stats[i] != private.stats[i] {
				t.Errorf("seed %d %s: shared table converged at %v with %+v; private tables at %v with %+v",
					seed, phase, shared.conv[i], shared.stats[i], private.conv[i], private.stats[i])
			}
			for id, want := range private.dbs[i] {
				got := shared.dbs[i][id]
				if len(got) != len(want) {
					t.Errorf("seed %d %s: %v holds %d LSAs, want %d", seed, phase, id, len(got), len(want))
					continue
				}
				for j := range want {
					if !bytes.Equal(got[j], want[j]) {
						t.Errorf("seed %d %s: %v's LSA %d differs from a private decode", seed, phase, id, j)
					}
				}
			}
		}
	}
}

// privateViews gives every AD of s the view it built for itself before the
// system shared one: its own LSDB's graph and policy with its own criteria
// set, compiled.
func privateViews(s *System) {
	for _, n := range s.nodes {
		g, pdb := n.flooder.DB.Graph(), n.flooder.DB.PolicyDB()
		pdb.SetCriteria(n.id, s.db.CriteriaFor(n.id))
		snap := synthesis.Compile(g, pdb)
		n.view, n.own = &flood.View{Graph: g, Policy: pdb, Snap: snap}, snap
	}
}

// TestSharedViewsAreInvisible converges the system on each of six generated
// internets, in which some stubs avoid ADs, and routes every pair twice,
// once on the views the system shares and once on a private view per AD.
// Every route, the expansion count, the state, the handle caches and every
// traffic counter must agree, before and after a link failure; and shared,
// the ADs must hold one view between them.
func TestSharedViewsAreInvisible(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := topology.Generate(topology.Config{
			Seed: seed, Backbones: 2, RegionalsPerBackbone: 3, MetrosPerRegional: 1,
			CampusesPerParent: 2, LateralProb: 0.2, BypassProb: 0.1,
		}).Graph
		db := policy.Generate(g, policy.GenConfig{
			Seed: seed + 1, SourceRestrictionProb: 0.3, SourceFraction: 0.5, AvoidProb: 0.6,
		})
		victim := g.Links()[int(seed)%g.NumLinks()]
		cut := g.Clone()
		cut.RemoveLink(victim.A, victim.B)
		// Where the failure partitions the internet, each side converges
		// on an LSDB state of its own.
		connected := cut.Connected()
		reqs := trafficgen.AllPairs(g, false, 0, 0)
		phases := []string{"initial", "after a failure"}
		type phase struct {
			routes            []core.Outcome
			expansions, state int
			cache             CacheStats
			stats             sim.Stats
		}
		run := func(private bool) (r [2]phase) {
			s := New(g.Clone(), db, Config{})
			for i := range r {
				if i == 1 {
					if err := s.FailLink(victim.A, victim.B); err != nil {
						t.Fatal(err)
					}
				}
				if _, ok := s.Converge(600 * sim.Second); !ok {
					t.Fatalf("seed %d: did not converge", seed)
				}
				if private {
					privateViews(s)
				}
				for _, req := range reqs {
					r[i].routes = append(r[i].routes, s.Route(req))
				}
				r[i].expansions, r[i].state, r[i].cache = s.Computations(), s.StateEntries(), s.CacheStats()
				r[i].stats = *s.Network().Stats
				if !private && (i == 0 || connected) {
					views := make(map[*flood.View]bool)
					for _, n := range s.nodes {
						views[n.view] = true
					}
					if len(views) != 1 {
						t.Errorf("seed %d %s: the ADs hold %d views between them, want 1", seed, phases[i], len(views))
					}
				}
			}
			return r
		}
		shared, private := run(false), run(true)
		for i, when := range phases {
			sh, pr := shared[i], private[i]
			if sh.expansions != pr.expansions || sh.state != pr.state || sh.cache != pr.cache || sh.stats != pr.stats {
				t.Errorf("seed %d %s: shared views %d expansions, %d entries, %+v, %+v; private %d, %d, %+v, %+v",
					seed, when, sh.expansions, sh.state, sh.cache, sh.stats, pr.expansions, pr.state, pr.cache, pr.stats)
			}
			for j, req := range reqs {
				a, b := sh.routes[j], pr.routes[j]
				if !a.Path.Equal(b.Path) || a.Delivered != b.Delivered || a.Looped != b.Looped || a.SetupMessages != b.SetupMessages {
					t.Errorf("seed %d %s %v->%v: shared views route %+v, private %+v", seed, when, req.Src, req.Dst, a, b)
				}
			}
		}
	}
}
