package policy

import (
	"math/rand"

	"repro/internal/ad"
)

// GenConfig controls the synthetic policy generator. The zero value with
// Normalize applied produces the paper's recommended regime: coarse, open
// policies ("ADs should adopt the least restrictive policies possible and
// should control access at the coarsest granularity possible", §2.3).
// Raising the knobs moves toward the fine-grained regime whose costs the
// paper analyses.
type GenConfig struct {
	// Seed fixes the generator RNG.
	Seed int64
	// SourceRestrictionProb is the probability that a transit AD
	// restricts which source ADs may use it.
	SourceRestrictionProb float64
	// SourceFraction is the fraction of ADs admitted as sources by a
	// restricting transit AD.
	SourceFraction float64
	// DestRestrictionProb and DestFraction mirror the source knobs for
	// destination-specific policies.
	DestRestrictionProb float64
	DestFraction        float64
	// QOSClasses is the number of distinct QOS classes in the internet
	// (>= 1). Each transit AD offers class 0 always and each higher class
	// with probability QOSCoverage.
	QOSClasses  int
	QOSCoverage float64
	// UCIClasses is the number of distinct user classes (>= 1). Each
	// transit AD admits class 0 always and each higher class with
	// probability UCICoverage.
	UCIClasses  int
	UCICoverage float64
	// TimeWindowProb is the probability a term carries a non-always
	// time-of-day window.
	TimeWindowProb float64
	// TermsPerTransit splits each transit AD's policy into this many
	// separate terms over destination partitions, modelling granularity
	// (>= 1). More terms = finer-grained policy = bigger LSDB.
	TermsPerTransit int
	// HybridSourceFraction is the fraction of ADs a hybrid
	// (limited-transit) AD carries traffic for; hybrids always restrict.
	HybridSourceFraction float64
	// AvoidProb is the probability a stub source AD has a selection
	// criterion avoiding one other AD.
	AvoidProb float64
	// MaxTermCost is the upper bound for random per-term transit costs
	// (cost drawn uniformly from [1, MaxTermCost]). 0 means cost 1.
	MaxTermCost int
}

// Normalize fills zero fields with defaults that produce a legal, mostly
// open policy set, and clamps probabilities into [0,1].
func (c GenConfig) Normalize() GenConfig {
	if c.QOSClasses < 1 {
		c.QOSClasses = 1
	}
	if c.QOSClasses > MaxClasses {
		c.QOSClasses = MaxClasses
	}
	if c.UCIClasses < 1 {
		c.UCIClasses = 1
	}
	if c.UCIClasses > MaxClasses {
		c.UCIClasses = MaxClasses
	}
	if c.QOSCoverage == 0 {
		c.QOSCoverage = 0.8
	}
	if c.UCICoverage == 0 {
		c.UCICoverage = 0.8
	}
	if c.TermsPerTransit < 1 {
		c.TermsPerTransit = 1
	}
	if c.SourceFraction == 0 {
		c.SourceFraction = 0.5
	}
	if c.DestFraction == 0 {
		c.DestFraction = 0.5
	}
	if c.HybridSourceFraction == 0 {
		c.HybridSourceFraction = 0.3
	}
	clamp := func(p *float64) {
		if *p < 0 {
			*p = 0
		}
		if *p > 1 {
			*p = 1
		}
	}
	clamp(&c.SourceRestrictionProb)
	clamp(&c.SourceFraction)
	clamp(&c.DestRestrictionProb)
	clamp(&c.DestFraction)
	clamp(&c.QOSCoverage)
	clamp(&c.UCICoverage)
	clamp(&c.TimeWindowProb)
	clamp(&c.HybridSourceFraction)
	clamp(&c.AvoidProb)
	return c
}

// Generate builds a policy database for graph g under config c.
//
// Class behaviour follows the paper's AD taxonomy (§2.1):
//   - Stub and multi-homed stub ADs advertise no transit terms at all.
//   - Transit ADs advertise terms for all traffic, restricted per the knobs.
//   - Hybrid ADs advertise limited-transit terms: a restricted source set.
func Generate(g *ad.Graph, c GenConfig) *DB {
	c = c.Normalize()
	rng := rand.New(rand.NewSource(c.Seed))
	db := NewDB()
	all := g.IDs()

	qosSet := func() ClassSet {
		s := ClassSetOf(0)
		for q := 1; q < c.QOSClasses; q++ {
			if rng.Float64() < c.QOSCoverage {
				s |= 1 << uint(q)
			}
		}
		return s
	}
	uciSet := func() ClassSet {
		s := ClassSetOf(0)
		for u := 1; u < c.UCIClasses; u++ {
			if rng.Float64() < c.UCICoverage {
				s |= 1 << uint(u)
			}
		}
		return s
	}
	randomSubset := func(frac float64, exclude ad.ID) ADSet {
		n := int(frac * float64(len(all)))
		if n < 1 {
			n = 1
		}
		perm := rng.Perm(len(all))
		picked := make([]ad.ID, 0, n)
		for _, idx := range perm {
			if all[idx] == exclude {
				continue
			}
			picked = append(picked, all[idx])
			if len(picked) == n {
				break
			}
		}
		return SetOf(picked...)
	}
	window := func() HourWindow {
		if rng.Float64() >= c.TimeWindowProb {
			return Always
		}
		start := uint8(rng.Intn(24))
		length := uint8(4 + rng.Intn(16)) // 4..19 hour window
		return HourWindow{Start: start, End: (start + length) % 24}
	}
	cost := func() uint32 {
		if c.MaxTermCost <= 1 {
			return 1
		}
		return uint32(1 + rng.Intn(c.MaxTermCost))
	}

	// Destination partitions for granularity: split the AD space into
	// TermsPerTransit contiguous chunks; each term covers one chunk.
	destPartition := func(k int) ADSet {
		if c.TermsPerTransit == 1 {
			return Universal()
		}
		chunk := (len(all) + c.TermsPerTransit - 1) / c.TermsPerTransit
		lo := k * chunk
		if lo >= len(all) {
			// More terms than ADs: surplus terms repeat full coverage
			// so granularity sweeps still emit the requested count.
			return Universal()
		}
		hi := lo + chunk
		if hi > len(all) {
			hi = len(all)
		}
		return SetOf(all[lo:hi]...)
	}

	for _, info := range g.ADs() {
		switch info.Class {
		case ad.Stub, ad.MultihomedStub:
			// No transit terms: paper §2.1, stubs disallow transit.
		case ad.Transit:
			sources := Universal()
			if rng.Float64() < c.SourceRestrictionProb {
				sources = randomSubset(c.SourceFraction, info.ID)
			}
			dests := Universal()
			if rng.Float64() < c.DestRestrictionProb {
				dests = randomSubset(c.DestFraction, info.ID)
			}
			for k := 0; k < c.TermsPerTransit; k++ {
				part := destPartition(k)
				d := dests
				if !part.IsUniversal() {
					d = intersect(dests, part, all)
				}
				db.Add(Term{
					Advertiser: info.ID,
					Sources:    sources,
					Dests:      d,
					PrevADs:    Universal(),
					NextADs:    Universal(),
					QOS:        qosSet(),
					UCI:        uciSet(),
					Hours:      window(),
					Cost:       cost(),
				})
			}
		case ad.Hybrid:
			// Limited transit: always a restricted source set.
			db.Add(Term{
				Advertiser: info.ID,
				Sources:    randomSubset(c.HybridSourceFraction, info.ID),
				Dests:      Universal(),
				PrevADs:    Universal(),
				NextADs:    Universal(),
				QOS:        qosSet(),
				UCI:        uciSet(),
				Hours:      window(),
				Cost:       cost(),
			})
		}
	}

	// Source selection criteria for stub ADs.
	for _, info := range g.ADs() {
		if info.Class != ad.Stub && info.Class != ad.MultihomedStub {
			continue
		}
		if rng.Float64() < c.AvoidProb {
			avoid := randomSubset(1/float64(len(all)), info.ID)
			db.SetCriteria(info.ID, Criteria{Avoid: avoid})
		}
	}
	return db
}

// intersect returns the intersection of two ADSets given the universe.
func intersect(a, b ADSet, universe []ad.ID) ADSet {
	if a.IsUniversal() {
		return b
	}
	if b.IsUniversal() {
		return a
	}
	var out []ad.ID
	for _, id := range universe {
		if a.Contains(id) && b.Contains(id) {
			out = append(out, id)
		}
	}
	return SetOf(out...)
}

// OpenDB returns the least restrictive database for g: every transit and
// hybrid AD advertises one open term; no source criteria. This is the
// baseline against which restriction experiments compare.
func OpenDB(g *ad.Graph) *DB {
	db := NewDB()
	for _, info := range g.ADs() {
		if info.Class == ad.Transit || info.Class == ad.Hybrid {
			db.Add(OpenTerm(info.ID, 0))
		}
	}
	return db
}
