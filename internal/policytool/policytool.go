// Package policytool implements the network-management capability the paper
// lists among its open issues (§6): "it will be imperative for these
// administrators to have available network management tools to assist them
// in predicting the impact of their policies on the service received from
// the routing architecture."
//
// Assess compares the internet's routing behaviour before and after a
// proposed batch of control steps — a policy change at one AD, link
// failures, or a mix: which source/destination pairs gain or lose legal
// routes, how the focus AD's transit load shifts, and how route synthesis
// cost changes. It is the one what-if classification: the plan engine,
// scenario plan events and cmd/policytool all go through Classify.
package policytool

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ad"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/synthesis"
	"repro/internal/wire"
)

// PairChange records a traffic pair whose best legal route changed.
type PairChange struct {
	Req policy.Request
	// Before and After are the best legal paths (nil when none).
	Before, After ad.Path
}

// Impact is the predicted effect of a batch of control steps.
type Impact struct {
	// AD is the AD whose transit load and terms the summary tracks: the
	// first policy step's advertiser, else the first step's A endpoint.
	AD ad.ID
	// Requests is the evaluated traffic population size.
	Requests int
	// Gained lists pairs that acquire a legal route; Lost lists pairs
	// that lose theirs.
	Gained, Lost []PairChange
	// Rerouted lists pairs that keep connectivity but shift paths.
	Rerouted []PairChange
	// UnroutableAfter lists every pair with no route after the batch,
	// whether or not it had one before.
	UnroutableAfter []policy.Request
	// TransitBefore / TransitAfter count best routes crossing the AD —
	// the traffic the AD invites or sheds with its policy.
	TransitBefore, TransitAfter int
	// WorkBefore / WorkAfter are total synthesis expansions over the
	// request population — the route-computation load the policy causes.
	WorkBefore, WorkAfter int
	// TermsBefore / TermsAfter count the AD's policy terms (flooding
	// footprint).
	TermsBefore, TermsAfter int
}

// ConnectivityDelta is Gained minus Lost.
func (im Impact) ConnectivityDelta() int { return len(im.Gained) - len(im.Lost) }

// add folds one request's before/after synthesis results into the impact.
func (im *Impact) add(req policy.Request, before, after synthesis.Result) {
	im.Requests++
	im.WorkBefore += before.Expanded
	im.WorkAfter += after.Expanded
	if before.Found && isTransit(before.Path, im.AD) {
		im.TransitBefore++
	}
	if after.Found && isTransit(after.Path, im.AD) {
		im.TransitAfter++
	}
	if !after.Found {
		im.UnroutableAfter = append(im.UnroutableAfter, req)
	}
	switch {
	case !before.Found && after.Found:
		im.Gained = append(im.Gained, PairChange{Req: req, After: after.Path})
	case before.Found && !after.Found:
		im.Lost = append(im.Lost, PairChange{Req: req, Before: before.Path})
	case before.Found && after.Found && !before.Path.Equal(after.Path):
		im.Rerouted = append(im.Rerouted, PairChange{Req: req, Before: before.Path, After: after.Path})
	}
}

// Assess evaluates applying steps, in order, to w over the given traffic
// population. w is not modified; a batch World.After refuses is an error.
func Assess(w *synthesis.World, steps []wire.PlanStep, reqs []policy.Request) (Impact, error) {
	after, _, err := w.After(steps)
	if err != nil {
		return Impact{}, err
	}
	return Classify(w, after, steps, reqs), nil
}

// Classify compares every request's best route in the world before steps
// with the one in the world after them; steps is the non-empty batch that
// led from one to the other (World.After). Each world is compiled once and
// shared by a worker per CPU; results land by index, so the impact is the
// same at any parallelism.
func Classify(before, after *synthesis.World, steps []wire.PlanStep, reqs []policy.Request) Impact {
	focus := focusAD(steps)
	im := Impact{
		AD:          focus,
		TermsBefore: len(before.DB.Terms(focus)),
		TermsAfter:  len(after.DB.Terms(focus)),
	}
	was, now := synthesis.Compile(before.G, before.DB), synthesis.Compile(after.G, after.DB)
	res := make([][2]synthesis.Result, len(reqs))
	tasks := make([]func(), len(reqs))
	for i, req := range reqs {
		tasks[i] = func() { res[i] = [2]synthesis.Result{was.FindRoute(req), now.FindRoute(req)} }
	}
	parallel.Do(0, tasks)
	for i, req := range reqs {
		im.add(req, res[i][0], res[i][1])
	}
	return im
}

// focusAD picks the AD whose transit load the impact summary tracks: the
// first policy step's advertiser, else the first step's A endpoint.
func focusAD(steps []wire.PlanStep) ad.ID {
	for _, st := range steps {
		if st.Op == wire.CtlPolicy {
			return st.A
		}
	}
	return steps[0].A
}

// isTransit reports whether id appears strictly inside path.
func isTransit(path ad.Path, id ad.ID) bool {
	for i := 1; i < len(path)-1; i++ {
		if path[i] == id {
			return true
		}
	}
	return false
}

// SummaryLines renders the Gained/Lost/transit digest from raw counts —
// the one rendering path shared by cmd/policytool's report and the routed
// plan command, so the two tools print the same summary and cannot drift.
func SummaryLines(focus ad.ID, transitBefore, transitAfter, gained, lost, rerouted int) []string {
	return []string{
		fmt.Sprintf("transit load: %d -> %d routed pairs cross %v", transitBefore, transitAfter, focus),
		fmt.Sprintf("connectivity: +%d gained, -%d lost, %d rerouted", gained, lost, rerouted),
	}
}

// SummaryLines renders the impact's digest through the shared path.
func (im Impact) SummaryLines() []string {
	return SummaryLines(im.AD, im.TransitBefore, im.TransitAfter,
		len(im.Gained), len(im.Lost), len(im.Rerouted))
}

// Report writes a human-readable impact summary.
func (im Impact) Report(w io.Writer) error {
	var b []byte
	p := func(format string, args ...interface{}) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	p("policy impact assessment for %v over %d requests\n", im.AD, im.Requests)
	p("  terms:        %d -> %d\n", im.TermsBefore, im.TermsAfter)
	p("  synthesis:    %d -> %d expansions across the population\n", im.WorkBefore, im.WorkAfter)
	for _, line := range im.SummaryLines() {
		p("  %s\n", line)
	}
	show := func(label string, changes []PairChange, limit int) {
		if len(changes) == 0 {
			return
		}
		p("  %s:\n", label)
		sorted := append([]PairChange(nil), changes...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Req.Src != sorted[j].Req.Src {
				return sorted[i].Req.Src < sorted[j].Req.Src
			}
			return sorted[i].Req.Dst < sorted[j].Req.Dst
		})
		for i, c := range sorted {
			if i == limit {
				p("    ... and %d more\n", len(sorted)-limit)
				break
			}
			switch {
			case c.Before == nil:
				p("    %v gains %v\n", c.Req, c.After)
			case c.After == nil:
				p("    %v loses %v\n", c.Req, c.Before)
			default:
				p("    %v moves %v -> %v\n", c.Req, c.Before, c.After)
			}
		}
	}
	show("lost", im.Lost, 10)
	show("gained", im.Gained, 10)
	show("rerouted", im.Rerouted, 10)
	_, err := w.Write(b)
	return err
}
