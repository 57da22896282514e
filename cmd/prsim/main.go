// Command prsim runs one inter-AD routing architecture over a generated
// topology and policy set, reports its convergence behaviour, and evaluates
// route availability against the policy oracle.
//
// Usage:
//
//	prsim -proto orwg -seed 7 -restriction 0.6
//	prsim -proto ecma -fail      # inject a link failure after convergence
//	prsim -proto idrp -src 5 -dst 12   # trace one route
//	prsim -proto all -parallel 4 # compare all protocols, 4 runs at a time
//	prsim -scenario my.json      # run a declarative scenario file
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/protocols/ecma"
	"repro/internal/protocols/egp"
	"repro/internal/protocols/filters"
	"repro/internal/protocols/idrp"
	"repro/internal/protocols/lshh"
	"repro/internal/protocols/orwg"
	"repro/internal/protocols/plaindv"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// protoOrder fixes the report order of the -proto all comparison.
var protoOrder = []string{
	"plain-dv", "egp", "filters", "ecma", "bgp", "idrp", "idrp-multi", "lshh", "orwg",
}

// newSystem builds the named protocol over the shared topology and policy
// set. The graph and DB are read-only to a running system, so systems built
// from the same pair may run concurrently.
func newSystem(proto string, g *ad.Graph, db *policy.DB, seed int64) (core.System, bool) {
	switch proto {
	case "plain-dv":
		return plaindv.New(g, plaindv.Config{SplitHorizon: true, Seed: seed}), true
	case "egp":
		return egp.New(g, egp.Config{Seed: seed}), true
	case "filters":
		return filters.New(g, db, filters.Config{Seed: seed}), true
	case "ecma":
		return ecma.New(g, db, ecma.Config{Seed: seed}), true
	case "bgp":
		return idrp.New(g, db, idrp.Config{Seed: seed, BGPMode: true}), true
	case "idrp":
		return idrp.New(g, db, idrp.Config{Seed: seed}), true
	case "idrp-multi":
		return idrp.New(g, db, idrp.Config{Seed: seed, MultiRoute: 4}), true
	case "lshh":
		return lshh.New(g, db, lshh.Config{Seed: seed}), true
	case "orwg":
		return orwg.New(g, db, orwg.Config{Seed: seed}), true
	default:
		return nil, false
	}
}

func main() {
	var (
		proto        = flag.String("proto", "orwg", "protocol: plain-dv | egp | filters | ecma | bgp | idrp | idrp-multi | lshh | orwg | all")
		seed         = flag.Int64("seed", 42, "seed for topology, policy, and simulation")
		backbones    = flag.Int("backbones", 2, "backbone ADs")
		regionals    = flag.Int("regionals", 3, "regionals per backbone")
		campuses     = flag.Int("campuses", 3, "campuses per regional")
		lateral      = flag.Float64("lateral", 0.25, "lateral link probability")
		bypass       = flag.Float64("bypass", 0.10, "bypass link probability")
		restriction  = flag.Float64("restriction", 0.5, "source-restriction probability for transit policies")
		failLink     = flag.Bool("fail", false, "fail a single-homed stub uplink after convergence and reconverge")
		src          = flag.Uint("src", 0, "trace a route from this AD (with -dst)")
		dst          = flag.Uint("dst", 0, "trace a route to this AD (with -src)")
		scenarioFile = flag.String("scenario", "", "run a declarative JSON scenario instead of flags")
		trace        = flag.Bool("trace", false, "print every delivered protocol message")
		workload     = flag.String("workload", "all-pairs", "traffic workload: all-pairs | uniform | zipf | gravity")
		requests     = flag.Int("requests", 400, "workload length for sampled models")
		parallelism  = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent protocol runs for -proto all (results are deterministic regardless)")
	)
	flag.Parse()

	if *scenarioFile != "" {
		f, err := os.Open(*scenarioFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sc, err := scenario.Load(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := sc.Run(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	topo := topology.Generate(topology.Config{
		Seed:                 *seed,
		Backbones:            *backbones,
		RegionalsPerBackbone: *regionals,
		CampusesPerParent:    *campuses,
		LateralProb:          *lateral,
		BypassProb:           *bypass,
		MultihomedProb:       0.1,
	})
	g := topo.Graph
	db := policy.Generate(g, policy.GenConfig{
		Seed:                  *seed + 1,
		SourceRestrictionProb: *restriction,
		SourceFraction:        0.5,
	})

	oracle := core.NewOracle(g, db)
	var reqs []policy.Request
	if *workload == "all-pairs" {
		reqs = core.AllPairsRequests(g, true, 0, 0)
	} else {
		reqs = trafficgen.Generate(g, trafficgen.Config{
			Seed: *seed + 2, Requests: *requests, StubsOnly: true, Model: *workload,
		})
	}

	if *proto == "all" {
		if *failLink || *trace || *src != 0 || *dst != 0 {
			fmt.Fprintln(os.Stderr, "-fail, -trace, -src and -dst apply to a single protocol; pick one with -proto")
			os.Exit(2)
		}
		fmt.Printf("topology: %d ADs, %d links (seed %d)\n", g.NumADs(), g.NumLinks(), *seed)
		fmt.Printf("policy: %d terms, restriction %.2f\n\n", db.NumTerms(), *restriction)
		ms := make([]core.Metrics, len(protoOrder))
		tasks := make([]func(), len(protoOrder))
		for i, name := range protoOrder {
			i, name := i, name
			sys, _ := newSystem(name, g, db, *seed)
			tasks[i] = func() {
				ms[i] = core.RunScenario(sys, oracle, reqs, 600*sim.Second)
			}
		}
		parallel.Do(*parallelism, tasks)
		for _, m := range ms {
			fmt.Println(m)
		}
		return
	}

	sys, ok := newSystem(*proto, g, db, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *proto)
		os.Exit(2)
	}

	if *trace {
		sys.Network().Trace = func(format string, args ...interface{}) {
			fmt.Printf("trace: "+format+"\n", args...)
		}
	}

	fmt.Printf("topology: %d ADs, %d links (seed %d)\n", g.NumADs(), g.NumLinks(), *seed)
	fmt.Printf("policy: %d terms, restriction %.2f\n\n", db.NumTerms(), *restriction)

	m := core.RunScenario(sys, oracle, reqs, 600*sim.Second)
	fmt.Println(m)

	if *failLink {
		victim := firstSingleHomedUplink(g)
		fmt.Printf("\nfailing link %v-%v ...\n", victim.A, victim.B)
		if f, ok := sys.(interface{ FailLink(a, b ad.ID) error }); ok {
			if err := f.FailLink(victim.A, victim.B); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		conv, quiesced := sys.Converge(6000 * sim.Second)
		fmt.Printf("reconverged at %v (quiesced: %v), total messages %d\n",
			conv, quiesced, sys.Network().Stats.MessagesSent)
	}

	if *src != 0 && *dst != 0 {
		req := policy.Request{Src: ad.ID(*src), Dst: ad.ID(*dst)}
		out := sys.Route(req)
		fmt.Printf("\nroute %v: path=%v delivered=%v looped=%v legal=%v\n",
			req, out.Path, out.Delivered, out.Looped, oracle.Legal(out.Path, req))
	}
}

func firstSingleHomedUplink(g *ad.Graph) ad.Link {
	for _, info := range g.ADs() {
		if info.Class == ad.Stub && g.Degree(info.ID) == 1 {
			return g.IncidentLinks(info.ID)[0]
		}
	}
	return g.Links()[0]
}
