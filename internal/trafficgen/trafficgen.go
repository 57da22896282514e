// Package trafficgen generates traffic request workloads for the
// experiments: uniform all-pairs sweeps, Zipf-skewed hot sets (most
// traffic between few pairs, as inter-AD traffic matrices are), and a
// gravity model in which an AD's traffic share is proportional to its
// degree (a proxy for its size, in the spirit of §2.1's locality argument).
package trafficgen

import (
	"math/rand"
	"sort"

	"repro/internal/ad"
	"repro/internal/policy"
)

// Config parameterizes a workload. The JSON form is used by scenario files
// (scenario.RequestSpec.Workload).
type Config struct {
	// Seed fixes the generator.
	Seed int64 `json:"seed,omitempty"`
	// Requests is the workload length.
	Requests int `json:"requests,omitempty"`
	// StubsOnly restricts sources and destinations to stub ADs.
	StubsOnly bool `json:"stubs_only,omitempty"`
	// Model selects the pair distribution: "uniform", "zipf", "gravity".
	Model string `json:"model,omitempty"`
	// ZipfS is the Zipf exponent (>1); larger = more skew. Default 1.2.
	ZipfS float64 `json:"zipf_s,omitempty"`
	// QOSClasses / UCIClasses spread requests over service and user
	// classes (uniformly); zero means class 0 only.
	QOSClasses int `json:"qos_classes,omitempty"`
	UCIClasses int `json:"uci_classes,omitempty"`
	// HourSpread draws request hours uniformly from [0,24) instead of
	// fixing noon.
	HourSpread bool `json:"hour_spread,omitempty"`
}

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.Requests <= 0 {
		c.Requests = 100
	}
	if c.Model == "" {
		c.Model = "uniform"
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	return c
}

// endpoints returns the candidate AD population.
func endpoints(g *ad.Graph, stubsOnly bool) []ad.ID {
	if stubsOnly {
		return g.Stubs()
	}
	return g.IDs()
}

// pairs enumerates ordered endpoint pairs.
func pairs(ids []ad.ID) [][2]ad.ID {
	var out [][2]ad.ID
	for _, s := range ids {
		for _, d := range ids {
			if s != d {
				out = append(out, [2]ad.ID{s, d})
			}
		}
	}
	return out
}

// Generate produces a workload over graph g.
func Generate(g *ad.Graph, c Config) []policy.Request {
	c = c.Normalize()
	rng := rand.New(rand.NewSource(c.Seed))
	ids := endpoints(g, c.StubsOnly)
	if len(ids) < 2 {
		return nil
	}
	pp := pairs(ids)

	var pick func() [2]ad.ID
	switch c.Model {
	case "zipf":
		// Shuffle pair ranks, then draw by Zipf rank.
		rng.Shuffle(len(pp), func(i, j int) { pp[i], pp[j] = pp[j], pp[i] })
		z := rand.NewZipf(rng, c.ZipfS, 1, uint64(len(pp)-1))
		pick = func() [2]ad.ID { return pp[z.Uint64()] }
	case "gravity":
		// Weight each AD by its degree; pair weight = w(s)·w(d).
		w := make(map[ad.ID]float64, len(ids))
		total := 0.0
		for _, id := range ids {
			w[id] = float64(g.Degree(id))
			total += w[id]
		}
		cum := make([]float64, len(ids))
		acc := 0.0
		for i, id := range ids {
			acc += w[id] / total
			cum[i] = acc
		}
		draw := func() ad.ID {
			x := rng.Float64()
			i := sort.SearchFloat64s(cum, x)
			if i >= len(ids) {
				i = len(ids) - 1
			}
			return ids[i]
		}
		pick = func() [2]ad.ID {
			for {
				s, d := draw(), draw()
				if s != d {
					return [2]ad.ID{s, d}
				}
			}
		}
	default: // uniform
		pick = func() [2]ad.ID { return pp[rng.Intn(len(pp))] }
	}

	out := make([]policy.Request, 0, c.Requests)
	for i := 0; i < c.Requests; i++ {
		p := pick()
		req := policy.Request{Src: p[0], Dst: p[1], Hour: 12}
		if c.QOSClasses > 1 {
			req.QOS = policy.QOS(rng.Intn(c.QOSClasses))
		}
		if c.UCIClasses > 1 {
			req.UCI = policy.UCI(rng.Intn(c.UCIClasses))
		}
		if c.HourSpread {
			req.Hour = uint8(rng.Intn(24))
		}
		out = append(out, req)
	}
	return out
}

// AllPairs is the deterministic sweep workload: one request at noon per
// ordered stub pair (or per ordered pair of any ADs when stubsOnly is false),
// in ascending (src, dst) order, with the given service class. Sources that
// are not stubs rarely originate traffic in the paper's model, so stubsOnly
// is the usual choice.
func AllPairs(g *ad.Graph, stubsOnly bool, qos policy.QOS, uci policy.UCI) []policy.Request {
	var reqs []policy.Request
	for _, p := range pairs(endpoints(g, stubsOnly)) {
		reqs = append(reqs, policy.Request{Src: p[0], Dst: p[1], QOS: qos, UCI: uci, Hour: 12})
	}
	return reqs
}

// Hottest returns up to n requests covering the workload's most frequent
// (src,dst,qos,uci) contexts, busiest first, for seeding precomputation.
func Hottest(workload []policy.Request, n int) []policy.Request {
	counts := map[policy.Request]int{}
	rep := map[policy.Request]policy.Request{}
	for _, r := range workload {
		k := r
		k.Hour = 0
		counts[k]++
		rep[k] = r
	}
	keys := make([]policy.Request, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.QOS != b.QOS {
			return a.QOS < b.QOS
		}
		return a.UCI < b.UCI
	})
	keys = keys[:min(n, len(keys))]
	out := make([]policy.Request, 0, len(keys))
	for _, k := range keys {
		out = append(out, rep[k])
	}
	return out
}
