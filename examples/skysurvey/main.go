// Sky survey: the LSST-style grid scenario of §2.7 — a survey image is
// partitioned across a shared-nothing cluster, scanned and aggregated with
// partial pushdown, joined co-partitioned against a catalog with zero data
// movement, and repartitioned when the workload turns out to be skewed
// (the steerable/El Niño case), with the automatic designer picking the
// new scheme from a sample workload.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"scidb"
	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/partition"
)

func main() {
	const (
		nodes = 4
		n     = 128
	)
	// An in-process grid; swap cluster.DialTCP(addrs) to run against real
	// scidb-server nodes — the protocol is identical.
	tr := cluster.NewLocal(nodes)
	co := cluster.NewCoordinator(tr, 0)

	skySchema := &scidb.Schema{
		Name: "sky",
		Dims: []scidb.Dimension{
			{Name: "ra", High: n},
			{Name: "dec", High: n},
		},
		Attrs: []scidb.Attribute{{Name: "flux", Type: scidb.TFloat64}},
	}
	catSchema := &scidb.Schema{
		Name: "catalog",
		Dims: []scidb.Dimension{
			{Name: "ra", High: n},
			{Name: "dec", High: n},
		},
		Attrs: []scidb.Attribute{{Name: "starid", Type: scidb.TInt64}},
	}
	// Fixed block partitioning on ra: right for whole-sky scans.
	fixed := partition.Block{Nodes: nodes, SplitDim: 0, High: n}
	mustErr(co.Create("sky", skySchema, fixed))
	mustErr(co.Create("catalog", catSchema, fixed)) // co-partitioned!

	rng := rand.New(rand.NewSource(8))
	var stars int64
	for ra := int64(1); ra <= n; ra++ {
		for dec := int64(1); dec <= n; dec++ {
			flux := rng.Float64() * 100
			mustErr(co.Put("sky", scidb.Coord{ra, dec}, scidb.Cell{scidb.Float(flux)}))
			if flux > 97 { // bright sources enter the catalog
				stars++
				mustErr(co.Put("catalog", scidb.Coord{ra, dec}, scidb.Cell{scidb.Int(stars)}))
			}
		}
	}
	mustErr(co.Flush("sky"))
	mustErr(co.Flush("catalog"))
	total, _ := co.Count("sky")
	fmt.Printf("loaded %d sky pixels and %d catalog stars across %d nodes\n", total, stars, nodes)

	// Whole-sky aggregate with partial pushdown.
	whole := array.NewBox(scidb.Coord{1, 1}, scidb.Coord{n, n})
	avg, err := co.Aggregate("sky", whole, "avg", "flux", nil)
	mustErr(err)
	cell, _ := avg.At(scidb.Coord{1})
	fmt.Printf("whole-sky mean flux: %.2f (each node computed a partial)\n", cell[0].AsFloat())

	// Co-partitioned join: zero bytes moved.
	co.ResetBytesMoved()
	matches, err := co.Sjoin("catalog", "sky", []string{"ra", "dec"}, []string{"ra", "dec"})
	mustErr(err)
	fmt.Printf("catalog⋈sky (co-partitioned): %d matches, %d bytes moved\n",
		matches.Count(), co.BytesMoved())

	// The workload turns steerable: 90%% of queries hit a narrow dec band.
	var sample []partition.SampleAccess
	for i := 0; i < 5000; i++ {
		dec := rng.Int63n(n) + 1
		if rng.Float64() < 0.9 {
			dec = n/2 + rng.Int63n(6)
		}
		sample = append(sample, partition.SampleAccess{
			Coord:  scidb.Coord{rng.Int63n(n) + 1, dec},
			Weight: 1,
		})
	}
	fmt.Printf("\nhotspot workload imbalance under fixed ra-blocks: %.2fx\n",
		partition.Imbalance(fixed, sample))

	// Note the fixed scheme splits ra, so a dec hotspot is actually spread —
	// but a dec-partitioned survey (common for drift scans) would suffer:
	fixedDec := partition.Block{Nodes: nodes, SplitDim: 1, High: n}
	fmt.Printf("...and under fixed dec-blocks: %.2fx\n", partition.Imbalance(fixedDec, sample))

	// The automatic designer derives a balanced scheme from the sample.
	designed, err := partition.Design(sample, 1, nodes)
	mustErr(err)
	fmt.Printf("designer-derived scheme %s imbalance: %.2fx\n",
		designed.Name(), partition.Imbalance(designed, sample))

	// Repartition the live array; only cells that change owner move.
	co.ResetBytesMoved()
	mustErr(co.Repartition("sky", designed))
	fmt.Printf("repartitioned sky: %d bytes moved\n", co.BytesMoved())
	after, _ := co.Count("sky")
	fmt.Printf("data intact after repartition: %d pixels\n", after)

	stats, _ := co.NodeStats()
	fmt.Println("\nper-node cells held after repartition:")
	for i, s := range stats {
		fmt.Printf("  node %d: %d cells\n", i, s.CellsHeld)
	}
}

func mustErr(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
