package bufcache

import "scidb/internal/obs"

// Fields lists the counters under their scidb_cache_* metric names: what
// RegisterMetrics exports and a grid coordinator reads back.
func (s *Stats) Fields() []obs.Field {
	return []obs.Field{
		{Name: "scidb_cache_hits_total", V: &s.Hits},
		{Name: "scidb_cache_misses_total", V: &s.Misses},
		{Name: "scidb_cache_loads_total", V: &s.Loads},
		{Name: "scidb_cache_evictions_total", V: &s.Evictions},
		{Name: "scidb_cache_invalidations_total", V: &s.Invalidations},
		{Name: "scidb_cache_entries", V: &s.Entries},
		{Name: "scidb_cache_resident_bytes", V: &s.BytesResident},
		{Name: "scidb_cache_pinned_bytes", V: &s.PinnedBytes},
		{Name: "scidb_cache_budget_bytes", V: &s.Budget},
	}
}

// RegisterMetrics exports the pool's counters into r under the
// scidb_cache_* family. The collector snapshots the pool's atomics only
// when scraped — nothing is added to the Get/Put hot path. label (e.g.
// `node="1"`) distinguishes pools when several register into one registry;
// empty means unlabeled.
func (p *Pool) RegisterMetrics(r *obs.Registry, label string) {
	r.RegisterFunc("scidb_cache", "Decoded-bucket buffer pool counters.", obs.KindGauge,
		func(emit func(obs.Sample)) {
			s := p.Stats()
			obs.EmitFields(emit, label, s.Fields())
		})
}
