package storage

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"scidb/internal/array"
)

// manifestName is the bucket index file inside a store directory. It makes
// the on-disk bucket population recoverable: a Store reopened on an
// existing directory resumes serving its buckets — the DBMS service
// ("recovery") that §2.9 notes in-situ data does not get.
const manifestName = "MANIFEST.json"

// manifest is the serialized bucket index.
type manifest struct {
	NextID  int64           `json:"next_id"`
	Buckets []manifestEntry `json:"buckets"`
}

type manifestEntry struct {
	ID    int64        `json:"id"`
	Lo    []int64      `json:"lo"`
	Hi    []int64      `json:"hi"`
	Bytes int64        `json:"bytes"`
	Cells int64        `json:"cells"`
	File  string       `json:"file"`
	Zones []*zoneEntry `json:"zones,omitempty"`
}

// zoneEntry is the manifest form of an attribute zone map. A nil entry
// keeps the attribute's position without claiming anything about it
// (nested-array columns, raw-encoded buckets, old manifests).
type zoneEntry struct {
	Kind     string  `json:"kind"`
	HasRange bool    `json:"has_range,omitempty"`
	HasNaN   bool    `json:"has_nan,omitempty"`
	MinInt   int64   `json:"min_int,omitempty"`
	MaxInt   int64   `json:"max_int,omitempty"`
	MinFloat float64 `json:"min_float,omitempty"`
	MaxFloat float64 `json:"max_float,omitempty"`
	MinStr   string  `json:"min_str,omitempty"`
	MaxStr   string  `json:"max_str,omitempty"`
	Nulls    int64   `json:"nulls,omitempty"`
	Distinct int64   `json:"distinct,omitempty"`
}

var zoneKindNames = map[array.Type]string{
	array.TInt64: "int", array.TFloat64: "float", array.TString: "string", array.TBool: "bool",
}

var zoneKindTypes = func() map[string]array.Type {
	m := map[string]array.Type{}
	for t, n := range zoneKindNames {
		m[n] = t
	}
	return m
}()

// zoneToEntry converts a zone map for the manifest. Float ranges with
// non-finite bounds are dropped (JSON cannot carry Inf), which is merely
// conservative: a missing zone never prunes.
func zoneToEntry(z *array.ZoneMap) *zoneEntry {
	if z == nil {
		return nil
	}
	name, ok := zoneKindNames[z.Kind]
	if !ok {
		return nil
	}
	e := &zoneEntry{Kind: name, HasRange: z.HasRange, HasNaN: z.HasNaN, Nulls: z.Nulls, Distinct: z.Distinct}
	if z.HasRange {
		switch z.Kind {
		case array.TFloat64:
			if math.IsInf(z.MinFloat, 0) || math.IsInf(z.MaxFloat, 0) {
				e.HasRange = false
			} else {
				e.MinFloat, e.MaxFloat = z.MinFloat, z.MaxFloat
			}
		case array.TString:
			e.MinStr, e.MaxStr = z.MinStr, z.MaxStr
		default:
			e.MinInt, e.MaxInt = z.MinInt, z.MaxInt
		}
	}
	return e
}

// zoneFromEntry rebuilds a zone map from the manifest, dropping entries
// that fail the same sanity checks the binary decoder applies.
func zoneFromEntry(e *zoneEntry) *array.ZoneMap {
	if e == nil {
		return nil
	}
	kind, ok := zoneKindTypes[e.Kind]
	if !ok || e.Nulls < 0 || e.Distinct < 0 {
		return nil
	}
	z := &array.ZoneMap{Kind: kind, HasRange: e.HasRange, HasNaN: e.HasNaN, Nulls: e.Nulls, Distinct: e.Distinct}
	if e.HasNaN && kind != array.TFloat64 {
		return nil
	}
	if z.HasRange {
		switch kind {
		case array.TFloat64:
			if math.IsNaN(e.MinFloat) || math.IsNaN(e.MaxFloat) || e.MinFloat > e.MaxFloat {
				return nil
			}
			z.MinFloat, z.MaxFloat = e.MinFloat, e.MaxFloat
		case array.TString:
			if e.MinStr > e.MaxStr {
				return nil
			}
			z.MinStr, z.MaxStr = e.MinStr, e.MaxStr
		case array.TBool:
			if e.MinInt > e.MaxInt || e.MinInt < 0 || e.MaxInt > 1 {
				return nil
			}
			z.MinInt, z.MaxInt = e.MinInt, e.MaxInt
		default:
			if e.MinInt > e.MaxInt {
				return nil
			}
			z.MinInt, z.MaxInt = e.MinInt, e.MaxInt
		}
	}
	return z
}

// saveManifestLocked writes the bucket index atomically (tmp + rename).
func (s *Store) saveManifestLocked() error {
	if s.opts.Dir == "" {
		return nil
	}
	m := manifest{NextID: s.nextID}
	for _, vs := range s.index {
		for _, b := range vs {
			e := manifestEntry{
				ID: b.id, Lo: b.box.Lo, Hi: b.box.Hi,
				Bytes: b.bytes, Cells: b.cells, File: filepath.Base(b.path),
			}
			for _, z := range b.zones {
				e.Zones = append(e.Zones, zoneToEntry(z))
			}
			m.Buckets = append(m.Buckets, e)
		}
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.opts.Dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return os.Rename(tmp, filepath.Join(s.opts.Dir, manifestName))
}

// loadManifestLocked rebuilds the bucket index from a prior run's manifest.
// A missing bucket file fails the open, and so, with ErrOffGrid, does a
// bucket that is not one chunk of the store's grid; a missing manifest means
// a fresh store.
func (s *Store) loadManifestLocked() error {
	if s.opts.Dir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(s.opts.Dir, manifestName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("storage: corrupt manifest: %w", err)
	}
	s.nextID = m.NextID
	s.index = map[string][]*bucketMeta{}
	for _, e := range m.Buckets {
		path := filepath.Join(s.opts.Dir, e.File)
		if _, err := os.Stat(path); err != nil {
			return fmt.Errorf("storage: manifest names missing bucket %s: %w", e.File, err)
		}
		box := array.Box{Lo: e.Lo, Hi: e.Hi}
		if !s.onGrid(box) {
			return fmt.Errorf("storage: manifest bucket %s at %v: %w", e.File, box, ErrOffGrid)
		}
		meta := &bucketMeta{
			id: e.ID, box: box, key: box.Lo.Key(),
			bytes: e.Bytes, cells: e.Cells, path: path,
		}
		if len(e.Zones) == len(s.schema.Attrs) {
			meta.zones = make([]*array.ZoneMap, len(e.Zones))
			for i, ze := range e.Zones {
				meta.zones[i] = zoneFromEntry(ze)
			}
		}
		s.index[meta.key] = append(s.index[meta.key], meta)
	}
	for _, vs := range s.index {
		slices.SortFunc(vs, func(a, b *bucketMeta) int { return cmp.Compare(b.id, a.id) })
	}
	return nil
}
