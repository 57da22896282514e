// Package protocols is Table 1 of Breslau & Estrin (SIGCOMM 1990) as one
// table: every design point, its coordinates on the paper's axes, and a
// constructor at its default configuration. The subpackages hold the
// protocols; a caller that wants a variant (no split horizon, QOS classes, a
// route-server strategy) calls a subpackage's New with its own Config.
package protocols

import (
	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/egp"
	"repro/internal/protocols/filters"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
	"repro/internal/protocols/plaindv"
)

// Design is one row of Table 1.
type Design struct {
	// Name is the design's key in prsim -proto and scenario files.
	Name string
	// Algorithm is "DV" or "LS"; "—" for the filter baseline, which runs
	// no routing algorithm.
	Algorithm string
	// Decision is where routes are chosen: "hop-by-hop" or "source".
	Decision string
	// PolicyIn is where policy is expressed: "none", "filters",
	// "topology", "local only" or "policy terms".
	PolicyIn string
	// New builds the design over g and db. A running system only reads
	// them, so systems built from one pair may run concurrently.
	New func(g *ad.Graph, db *policy.DB) core.System
}

// Designs lists Table 1's rows in its order: the policy-blind and filter
// baselines of §3, the ECMA and BGP hop-by-hop designs, IDRP with one and
// with four routes per destination, and the two link-state designs.
var Designs = []Design{
	{"plain-dv", "DV", "hop-by-hop", "none", func(g *ad.Graph, _ *policy.DB) core.System {
		return plaindv.New(g, plaindv.Config{SplitHorizon: true})
	}},
	{"egp", "DV", "hop-by-hop", "none", func(g *ad.Graph, _ *policy.DB) core.System {
		return egp.New(g, egp.Config{})
	}},
	{"filters", "—", "source", "filters", func(g *ad.Graph, db *policy.DB) core.System {
		return filters.New(g, db, filters.Config{})
	}},
	{"ecma", "DV", "hop-by-hop", "topology", func(g *ad.Graph, db *policy.DB) core.System {
		return ecma.New(g, db, ecma.Config{})
	}},
	{"bgp", "DV", "hop-by-hop", "local only", func(g *ad.Graph, db *policy.DB) core.System {
		return idrp.New(g, db, idrp.Config{BGPMode: true})
	}},
	{"idrp", "DV", "hop-by-hop", "policy terms", func(g *ad.Graph, db *policy.DB) core.System {
		return idrp.New(g, db, idrp.Config{})
	}},
	{"idrp-multi", "DV", "hop-by-hop", "policy terms", func(g *ad.Graph, db *policy.DB) core.System {
		return idrp.New(g, db, idrp.Config{MultiRoute: 4})
	}},
	{"lshh", "LS", "hop-by-hop", "policy terms", func(g *ad.Graph, db *policy.DB) core.System {
		return lshh.New(g, db, lshh.Config{})
	}},
	{"orwg", "LS", "source", "policy terms", func(g *ad.Graph, db *policy.DB) core.System {
		return orwg.New(g, db, orwg.Config{})
	}},
}

// Lookup returns the design called name, or nil if there is none.
func Lookup(name string) *Design {
	for i := range Designs {
		if Designs[i].Name == name {
			return &Designs[i]
		}
	}
	return nil
}
