package synthesis

import (
	"repro/internal/ad"
	"repro/internal/policy"
)

// Memo remembers the routes a Table had to search for, so a repeated request
// is answered once. It is what a strategy measured on its own (experiment
// E7) needs to show a hit ratio for repeated cold keys; a served strategy
// gets the same from routeserver.Server's cache and must not be wrapped.
// Positive results only, no capacity, and no lock: single goroutine only.
type Memo struct {
	*Table
	found map[policy.Request]ad.Path
	hits  int
}

// NewMemo wraps t.
func NewMemo(t *Table) *Memo {
	return &Memo{Table: t, found: make(map[policy.Request]ad.Path)}
}

// Route implements Strategy: the table, then the memo, then the search.
func (m *Memo) Route(req policy.Request) (ad.Path, bool) {
	if p, ok := m.lookup(req); ok {
		return p, true
	}
	if p, ok := m.found[req]; ok {
		m.hits++
		return p, true
	}
	p, ok := m.miss(req)
	if ok {
		m.found[req] = p
	}
	return p, ok
}

// Stats implements Strategy, counting memo hits and entries with the table's.
func (m *Memo) Stats() StrategyStats {
	st := m.Table.Stats()
	st.Hits += m.hits
	st.CacheEntries += len(m.found)
	return st
}

// Invalidate implements Strategy.
func (m *Memo) Invalidate() { m.InvalidateScoped(FullChange()) }

// InvalidateScoped implements Strategy: any change forgets every memoized
// route.
func (m *Memo) InvalidateScoped(c Change) {
	clear(m.found)
	m.Table.InvalidateScoped(c)
}
