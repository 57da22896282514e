package main

import (
	"math/rand"
	"sort"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/routeserver"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// inputs is everything a workload's stack is built from, generated from
// the seed alone. The program under test receives only these.
type inputs struct {
	g  *ad.Graph
	db *policy.DB
	// tape is the request sequence the generators replay (each from its
	// own offset, wrapping); keyOf[i] indexes tape[i]'s key in keys.
	tape  []policy.Request
	keyOf []int32
	// keys holds the tape's distinct requests in order of first use.
	keys []policy.Request
	// laterals are the links the control connection fails and restores.
	laterals []ad.Link
}

// generate builds the common internet, the mostly-permissive policy regime
// BenchmarkDaemonChurn serves (TimeWindowProb 0: legality does not depend
// on the hour, which validate relies on), and the workload's tape: stubs
// only, 2 QOS x 2 UCI classes. At full size Z draws ~7.5 k distinct keys
// (fits the default 65 536-entry cache) and U ~165 k (ten times the 16 384
// entries miss_thrash pins the cache to).
//
// The internet, the policy and the tape's requests are generated from the
// internet's own seed (sz.topo.Seed), not from the run's: generated from
// the run's seed, the no-route share of the hot keys, the search cost and
// the mutation blast radius moved by tens of percent from seed to seed,
// which is input variance no bound on a metric can absorb. The run's seed
// orders the tape — the sample path through that traffic matrix.
func generate(seed int64, w workload, sz sizing) *inputs {
	topo := topology.Generate(sz.topo)
	db := policy.Generate(topo.Graph, policy.GenConfig{
		Seed: sz.topo.Seed, QOSClasses: 2, UCIClasses: 2,
		QOSCoverage: 1.0, UCICoverage: 1.0, HybridSourceFraction: 0.9,
		SourceRestrictionProb: 0.2, SourceFraction: 0.7,
		DestRestrictionProb: 0.1, DestFraction: 0.7, AvoidProb: 0.1,
	})
	in := &inputs{g: topo.Graph, db: db}
	tcfg := trafficgen.Config{
		Seed: sz.topo.Seed, Requests: sz.tapeLen, StubsOnly: true,
		Model: "zipf", ZipfS: 1.4, QOSClasses: 2, UCIClasses: 2,
	}
	if w.tape == "uniform" {
		tcfg.Model, tcfg.HourSpread = "uniform", true
	}
	in.tape = trafficgen.Generate(topo.Graph, tcfg)
	rand.New(rand.NewSource(seed)).Shuffle(len(in.tape), func(i, j int) {
		in.tape[i], in.tape[j] = in.tape[j], in.tape[i]
	})
	in.keyOf = make([]int32, len(in.tape))
	index := make(map[routeserver.Key]int32)
	for i, req := range in.tape {
		k := routeserver.KeyOf(req)
		idx, seen := index[k]
		if !seen {
			idx = int32(len(in.keys))
			index[k] = idx
			in.keys = append(in.keys, req)
		}
		in.keyOf[i] = idx
	}
	for _, l := range in.g.Links() {
		if l.Class == ad.Lateral {
			in.laterals = append(in.laterals, l)
		}
	}
	if len(in.laterals) == 0 {
		in.laterals = in.g.Links() // a tiny internet may have drawn none
	}
	return in
}

// hotSet returns the n most frequent keys of the tape (ties broken by
// first use, so the set is a function of the tape alone).
func (in *inputs) hotSet(n int) []policy.Request {
	count := make([]int, len(in.keys))
	for _, k := range in.keyOf {
		count[k]++
	}
	order := make([]int, len(in.keys))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return count[order[a]] > count[order[b]] })
	if n > len(order) {
		n = len(order)
	}
	hot := make([]policy.Request, n)
	for i := range hot {
		hot[i] = in.keys[order[i]]
	}
	return hot
}
