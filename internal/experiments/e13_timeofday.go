package experiments

import (
	"fmt"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/protocols/orwg"
)

// E13TimeOfDay exercises the time-of-day policy dimension of §2.3 ("Common
// source and transit policies may be based on such things as ... time of
// day"): a cheap transit offers service only during business hours, an
// expensive one around the clock, and a third destination is reachable
// only through a night-window transit. Route choice and availability are
// measured across the day under ORWG.
func E13TimeOfDay(seed int64) *metrics.Table {
	// Topology: src -- {day (8-18, cheap), allday (dear)} -- d1
	//           src -- night (20-6) -- d2 (only path)
	g := ad.NewGraph()
	src := g.AddAD("src", ad.Stub, ad.Campus)
	day := g.AddAD("day", ad.Transit, ad.Regional)
	allday := g.AddAD("allday", ad.Transit, ad.Regional)
	night := g.AddAD("night", ad.Transit, ad.Regional)
	d1 := g.AddAD("d1", ad.Stub, ad.Campus)
	d2 := g.AddAD("d2", ad.Stub, ad.Campus)
	for _, l := range []ad.Link{
		{A: src, B: day, Cost: 1}, {A: day, B: d1, Cost: 1},
		{A: src, B: allday, Cost: 5}, {A: allday, B: d1, Cost: 5},
		{A: src, B: night, Cost: 1}, {A: night, B: d2, Cost: 1},
	} {
		mustLink(g, l)
	}
	db := policy.NewDB()
	dayTerm := policy.OpenTerm(day, 0)
	dayTerm.Hours = policy.HourWindow{Start: 8, End: 18}
	db.Add(dayTerm)
	db.Add(policy.OpenTerm(allday, 0))
	nightTerm := policy.OpenTerm(night, 0)
	nightTerm.Hours = policy.HourWindow{Start: 20, End: 6}
	db.Add(nightTerm)

	sys := orwg.New(g, db, orwg.Config{Seed: seed})
	sys.Converge(convergenceLimit)
	oracle := core.NewOracle(g, db)

	t := metrics.NewTable("E13 — time-of-day policies (ORWG)",
		"hour", "d1-via", "d1-legal", "d2-delivered", "d2-routable")
	for hour := uint8(0); hour < 24; hour += 3 {
		req1 := policy.Request{Src: src, Dst: d1, Hour: hour}
		out1 := sys.Route(req1)
		via := "-"
		if out1.Delivered {
			switch {
			case out1.Path.Contains(day):
				via = "day"
			case out1.Path.Contains(allday):
				via = "allday"
			}
		}
		req2 := policy.Request{Src: src, Dst: d2, Hour: hour}
		out2 := sys.Route(req2)
		t.AddRow(fmt.Sprintf("%02d:00", hour), via,
			out1.Delivered && oracle.Legal(out1.Path, req1),
			out2.Delivered, oracle.HasRoute(req2))
	}
	t.AddNote("the cheap day transit serves 08-18; outside it traffic shifts to the expensive always-on transit")
	t.AddNote("d2 is reachable only through a 20-06 window: availability itself is time-dependent")
	return t
}
