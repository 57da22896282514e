package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/ad"
	"repro/internal/metrics"
	"repro/internal/ordering"
)

// E10OrderingSatisfiability quantifies §5.1.1's concern that "there may not
// be a single partial ordering that simultaneously expresses the policies
// of all ADS": random AD policy constraints (X must rank above Y) are tested
// for joint satisfiability, and the central authority's negotiation cost is
// measured as the number of constraints that must be dropped. Trials are
// independent and run on every core, in chunks.
func E10OrderingSatisfiability(seed int64) *metrics.Table {
	return e10Rows(seed).run(0)
}

const (
	e10ADs    = 60
	e10Trials = 200
	e10Chunk  = 25 // trials per task
)

// e10Rows makes one task per (constraint count, chunk of e10Chunk trials),
// the most constraints first. Every constraint set is drawn here, up front,
// in the order one rng has always drawn them — count by count, trial by
// trial — so no draw moves; each task reads its chunk's sets and writes its
// own partial sums, which the table step combines per row.
func e10Rows(seed int64) rows {
	counts := []int{10, 20, 40, 80, 160, 320}
	rng := rand.New(rand.NewSource(seed))
	sets := make([][][]ordering.Constraint, len(counts))
	for i, k := range counts {
		sets[i] = make([][]ordering.Constraint, e10Trials)
		for trial := range sets[i] {
			sets[i][trial] = randomConstraints(rng, e10ADs, k)
		}
	}

	type sums struct {
		satisfiable, rounds, maxRounds, kept int
	}
	chunks := make([][]sums, len(counts))
	var tasks []func()
	for i := len(counts) - 1; i >= 0; i-- {
		chunks[i] = make([]sums, e10Trials/e10Chunk)
		for c := range chunks[i] {
			tasks = append(tasks, func() {
				s := &chunks[i][c]
				for _, cons := range sets[i][c*e10Chunk : (c+1)*e10Chunk] {
					if ordering.Satisfiable(cons) {
						s.satisfiable++
					}
					kept, rounds := ordering.Negotiate(cons)
					s.rounds += rounds
					s.maxRounds = max(s.maxRounds, rounds)
					s.kept += len(kept)
				}
			})
		}
	}

	return rows{tasks, func() *metrics.Table {
		t := metrics.NewTable("E10 — mutual satisfiability of topological policies",
			"constraints", "satisfiable-frac", "mean-negotiation-rounds", "max-rounds", "kept-frac")
		for i, k := range counts {
			var row sums
			for _, s := range chunks[i] {
				row.satisfiable += s.satisfiable
				row.rounds += s.rounds
				row.maxRounds = max(row.maxRounds, s.maxRounds)
				row.kept += s.kept
			}
			t.AddRow(fmt.Sprintf("%d", k),
				float64(row.satisfiable)/float64(e10Trials),
				float64(row.rounds)/float64(e10Trials),
				row.maxRounds,
				float64(row.kept)/float64(e10Trials*k))
		}
		t.AddNote("%d ADs, %d trials per row; constraints drawn uniformly over ordered AD pairs", e10ADs, e10Trials)
		t.AddNote("negotiation = central authority drops conflicting policies until a single ordering exists")
		return t
	}}
}

func randomConstraints(rng *rand.Rand, numADs, k int) []ordering.Constraint {
	cons := make([]ordering.Constraint, 0, k)
	for len(cons) < k {
		a := ad.ID(1 + rng.Intn(numADs))
		b := ad.ID(1 + rng.Intn(numADs))
		if a != b {
			cons = append(cons, ordering.Constraint{Above: a, Below: b})
		}
	}
	return cons
}
