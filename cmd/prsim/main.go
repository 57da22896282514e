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
	"strings"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/protocols"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

func main() {
	var names []string
	for _, d := range protocols.Designs {
		names = append(names, d.Name)
	}
	var (
		proto        = flag.String("proto", "orwg", "protocol: "+strings.Join(append(names, "all"), " | "))
		seed         = flag.Int64("seed", 42, "seed for topology, policy, and workload")
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
		reqs = trafficgen.AllPairs(g, true, 0, 0)
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
		ms := make([]core.Metrics, len(protocols.Designs))
		tasks := make([]func(), len(protocols.Designs))
		for i, d := range protocols.Designs {
			tasks[i] = func() { ms[i] = core.RunScenario(d.New(g, db), oracle, reqs, 600*sim.Second) }
		}
		parallel.Do(*parallelism, tasks)
		for _, m := range ms {
			fmt.Println(m)
		}
		return
	}

	d := protocols.Lookup(*proto)
	if d == nil {
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *proto)
		os.Exit(2)
	}
	sys := d.New(g, db)

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
		victim := g.StubUplink()
		fmt.Printf("\nfailing link %v-%v ...\n", victim.A, victim.B)
		if err := sys.FailLink(victim.A, victim.B); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
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
