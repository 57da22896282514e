package orwg

import (
	"bytes"
	"testing"

	"repro/internal/ad"
	"repro/internal/flood"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// lsdb is one AD's link-state database as the wire sees it: per origin,
// ascending, the installed LSA's frame.
type lsdb [][]byte

func snapshotLSDBs(s *System) map[ad.ID]lsdb {
	out := make(map[ad.ID]lsdb)
	for id, n := range s.nodes {
		for _, origin := range n.flooder.DB.Origins() {
			l, _ := n.flooder.DB.Get(origin)
			out[id] = append(out[id], wire.Marshal(l))
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
					n.flooder = flood.NewFlooder(n.id, flood.NewTable())
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
