package storage

import "scidb/internal/obs"

// Fields lists the counters under their scidb_store_* metric names: what
// RegisterMetrics exports and a grid coordinator reads back.
func (s *Stats) Fields() []obs.Field {
	return []obs.Field{
		{Name: "scidb_store_buckets_written_total", V: &s.BucketsWritten},
		{Name: "scidb_store_buckets_merged_total", V: &s.BucketsMerged},
		{Name: "scidb_store_buckets_read_total", V: &s.BucketsRead},
		{Name: "scidb_store_bytes_written_total", V: &s.BytesWritten},
		{Name: "scidb_store_bytes_read_total", V: &s.BytesRead},
		{Name: "scidb_store_flushes_total", V: &s.Flushes},
		{Name: "scidb_store_bytes_raw_total", V: &s.BytesRaw},
		{Name: "scidb_store_bytes_encoded_total", V: &s.BytesEncoded},
		{Name: "scidb_store_prefetch_issued_total", V: &s.PrefetchIssued},
		{Name: "scidb_store_prefetch_hits_total", V: &s.PrefetchHits},
		{Name: "scidb_store_prefetch_wasted_total", V: &s.PrefetchWasted},
		{Name: "scidb_store_chunks_visited_total", V: &s.ChunksVisited},
		{Name: "scidb_store_chunks_skipped_total", V: &s.ChunksSkipped},
	}
}

// RegisterMetrics exports stats (a snapshot source, usually a closure over
// one or more Stores) into r under the scidb_store_* family. Collection
// happens only at scrape time; the Store's own atomic counters remain the
// source of truth.
func RegisterMetrics(r *obs.Registry, label string, stats func() Stats) {
	r.RegisterFunc("scidb_store", "Bucket store I/O and encoding counters.", obs.KindGauge,
		func(emit func(obs.Sample)) {
			s := stats()
			obs.EmitFields(emit, label, s.Fields())
			emit(obs.Sample{Name: "scidb_store_skip_ratio", Label: label, Value: s.SkipRatio()})
		})
}
