package storage

import (
	"scidb/internal/array"
)

// ExportRegion gathers every cell the store holds inside box, a grid chunk
// at a time (Select, then MergeChunk), and returns the encoded chunk payloads
// (EncodeChunkZones bytes) plus the total cell count. The payloads are the
// migration/replication wire unit: a receiving store adopts them verbatim
// with Apply, so the copy is bit-identical to what a local encode
// would have produced. Scanning (rather than shipping raw buckets) folds
// newest-bucket shadowing and the memory buffer into one canonical copy,
// so the export is correct even when the region holds several versions of
// a chunk or unflushed writes.
func (s *Store) ExportRegion(box array.Box) ([][]byte, int64, error) {
	buf, err := array.New(s.schema.Clone())
	if err != nil {
		return nil, 0, err
	}
	if err := s.ScanChunks(box, nil, nil).Each(func(lc LiveChunk) error {
		return buf.MergeChunk(lc.Chunk.Select(lc.Live))
	}); err != nil {
		return nil, 0, err
	}
	var payloads [][]byte
	var cells int64
	for _, ch := range buf.Chunks() {
		if ch.CellsPresent() == 0 {
			continue
		}
		raw, _, err := EncodeChunkZones(s.schema, ch)
		if err != nil {
			return nil, 0, err
		}
		payloads = append(payloads, raw)
		cells += ch.CellsPresent()
	}
	return payloads, cells, nil
}
