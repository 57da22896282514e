package trafficgen

import (
	"math"
	"sort"
	"testing"

	"repro/internal/ad"
	"repro/internal/policy"
	"repro/internal/topology"
)

func testGraph() *topology.Topology {
	return topology.Generate(topology.Config{Seed: 3, LateralProb: 0.2})
}

func TestUniformWorkload(t *testing.T) {
	topo := testGraph()
	reqs := Generate(topo.Graph, Config{Seed: 1, Requests: 500, StubsOnly: true})
	if len(reqs) != 500 {
		t.Fatalf("requests = %d", len(reqs))
	}
	stubs := map[ad.ID]bool{}
	for _, info := range topo.Graph.ADs() {
		if info.Class == ad.Stub || info.Class == ad.MultihomedStub {
			stubs[info.ID] = true
		}
	}
	for _, r := range reqs {
		if r.Src == r.Dst {
			t.Fatal("self request")
		}
		if !stubs[r.Src] || !stubs[r.Dst] {
			t.Fatalf("non-stub endpoint in stubs-only workload: %v", r)
		}
		if r.QOS != 0 || r.UCI != 0 || r.Hour != 12 {
			t.Fatalf("default classes wrong: %v", r)
		}
	}
}

func TestZipfSkewExceedsUniform(t *testing.T) {
	topo := testGraph()
	uniform := Generate(topo.Graph, Config{Seed: 2, Requests: 2000, Model: "uniform"})
	zipf := Generate(topo.Graph, Config{Seed: 2, Requests: 2000, Model: "zipf", ZipfS: 1.5})
	su, sz := skew(uniform), skew(zipf)
	if sz <= su {
		t.Errorf("zipf skew %.3f <= uniform skew %.3f", sz, su)
	}
	if sz < 0.5 {
		t.Errorf("zipf (s=1.5) skew %.3f suspiciously low", sz)
	}
}

func TestGravityFavorsHighDegree(t *testing.T) {
	topo := testGraph()
	g := topo.Graph
	reqs := Generate(g, Config{Seed: 3, Requests: 3000, Model: "gravity"})
	counts := map[ad.ID]int{}
	for _, r := range reqs {
		counts[r.Src]++
		counts[r.Dst]++
	}
	// The highest-degree AD must appear more often than the lowest.
	var hi, lo ad.ID
	for _, info := range g.ADs() {
		if hi == ad.Invalid || g.Degree(info.ID) > g.Degree(hi) {
			hi = info.ID
		}
		if lo == ad.Invalid || g.Degree(info.ID) < g.Degree(lo) {
			lo = info.ID
		}
	}
	if counts[hi] <= counts[lo] {
		t.Errorf("gravity: high-degree %v count %d <= low-degree %v count %d",
			hi, counts[hi], lo, counts[lo])
	}
}

func TestClassAndHourSpread(t *testing.T) {
	topo := testGraph()
	reqs := Generate(topo.Graph, Config{
		Seed: 4, Requests: 1000, QOSClasses: 4, UCIClasses: 3, HourSpread: true,
	})
	qosSeen := map[uint8]bool{}
	hourSeen := map[uint8]bool{}
	for _, r := range reqs {
		qosSeen[uint8(r.QOS)] = true
		hourSeen[r.Hour] = true
		if r.QOS > 3 || r.UCI > 2 || r.Hour > 23 {
			t.Fatalf("out-of-range class: %v", r)
		}
	}
	if len(qosSeen) != 4 {
		t.Errorf("QOS classes seen = %d, want 4", len(qosSeen))
	}
	if len(hourSeen) < 20 {
		t.Errorf("hours seen = %d, want near 24", len(hourSeen))
	}
}

func TestDeterminism(t *testing.T) {
	topo := testGraph()
	a := Generate(topo.Graph, Config{Seed: 5, Requests: 200, Model: "zipf"})
	b := Generate(topo.Graph, Config{Seed: 5, Requests: 200, Model: "zipf"})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	g := ad.NewGraph()
	g.AddAD("only", ad.Stub, ad.Campus)
	if reqs := Generate(g, Config{Seed: 1, Requests: 10}); reqs != nil {
		t.Errorf("single-AD graph produced requests: %v", reqs)
	}
}

// skew summarizes a workload's concentration: the fraction of requests
// carried by the busiest decile of pairs (0.1 = perfectly uniform).
func skew(reqs []policy.Request) float64 {
	if len(reqs) == 0 {
		return 0
	}
	counts := map[[2]ad.ID]int{}
	for _, r := range reqs {
		counts[[2]ad.ID{r.Src, r.Dst}]++
	}
	sorted := make([]int, 0, len(counts))
	for _, c := range counts {
		sorted = append(sorted, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	top := int(math.Ceil(float64(len(sorted)) / 10))
	sum := 0
	for _, c := range sorted[:top] {
		sum += c
	}
	return float64(sum) / float64(len(reqs))
}
