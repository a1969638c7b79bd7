// Sky survey: the LSST-style grid scenario of §2.7 — a survey image is
// partitioned across a shared-nothing cluster and queried in AQL through a
// database attached to it: counted and aggregated with partial pushdown,
// joined against a co-partitioned catalog with no cell repartitioned,
// and repartitioned when the workload turns out to be skewed (the
// steerable/El Niño case), with the automatic designer picking the new
// scheme from a sample workload.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"scidb"
	"scidb/internal/cluster"
	"scidb/internal/partition"
)

func main() {
	const (
		nodes = 4
		n     = 128
		// A chunk is placed whole on one node, so each dimension has one
		// chunk column per node.
		chunk = n / nodes
	)
	// An in-process grid; swap cluster.DialTCP(addrs) to run against real
	// scidb-server nodes — the protocol is identical.
	tr := cluster.NewLocal(nodes)
	co := cluster.NewCoordinator(tr, 0)
	db := scidb.Open()
	db.AttachCluster(co)

	skySchema := &scidb.Schema{
		Name: "sky",
		Dims: []scidb.Dimension{
			{Name: "ra", High: n, ChunkLen: chunk},
			{Name: "dec", High: n, ChunkLen: chunk},
		},
		Attrs: []scidb.Attribute{{Name: "flux", Type: scidb.TFloat64}},
	}
	catSchema := &scidb.Schema{
		Name: "catalog",
		Dims: []scidb.Dimension{
			{Name: "ra", High: n, ChunkLen: chunk},
			{Name: "dec", High: n, ChunkLen: chunk},
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
	fmt.Printf("loaded %d sky pixels and %d catalog stars across %d nodes\n",
		scalar(db, "aggregate(sky, {}, count(*))").Int, stars, nodes)

	// Whole-sky aggregate with partial pushdown.
	avg := scalar(db, "aggregate(sky, {}, avg(flux))")
	fmt.Printf("whole-sky mean flux: %.2f (each node computed a partial)\n", avg.AsFloat())

	// Co-partitioned join: no cell is repartitioned for it.
	before := co.BytesMoved()
	matches, err := db.Exec("sjoin(catalog, sky, catalog.ra = sky.ra and catalog.dec = sky.dec)")
	mustErr(err)
	fmt.Printf("catalog⋈sky (co-partitioned): %d matches, %d bytes moved\n",
		matches.Array.Count(), co.BytesMoved()-before)

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
	// Placement is per chunk: the imbalances are those of the schemes bound
	// to the array's chunk grid, the grain at which cells actually move.
	grid := cluster.PartitionSchema(skySchema)
	fmt.Printf("\nhotspot workload imbalance under fixed ra-blocks: %.2fx\n",
		partition.Imbalance(partition.Bind(fixed, grid), sample))

	// Note the fixed scheme splits ra, so a dec hotspot is actually spread —
	// but a dec-partitioned survey (common for drift scans) would suffer:
	fixedDec := partition.Block{Nodes: nodes, SplitDim: 1, High: n}
	fmt.Printf("...and under fixed dec-blocks: %.2fx\n",
		partition.Imbalance(partition.Bind(fixedDec, grid), sample))

	// The automatic designer derives a scheme from the sample, splitting
	// dec at chunk boundaries. The hot band lies almost all in one chunk
	// column, and a chunk lives whole on one node, so no range of whole
	// chunks does better than the fixed blocks here: a hot chunk is spread
	// by replicas (cluster.RebalanceOptions.Replicas), not by placement.
	designed, err := partition.DesignChunks(sample, grid, 1, nodes)
	mustErr(err)
	fmt.Printf("designer-derived scheme %s imbalance: %.2fx\n",
		designed.Name(), partition.Imbalance(designed, sample))

	// Repartition the live array; only chunks that change owner move.
	before = co.BytesMoved()
	mustErr(co.Repartition("sky", designed))
	fmt.Printf("repartitioned sky: %d bytes moved\n", co.BytesMoved()-before)
	fmt.Printf("data intact after repartition: %d pixels\n",
		scalar(db, "aggregate(sky, {}, count(*))").Int)

	stats, _ := co.NodeStats()
	fmt.Println("\nper-node cells held after repartition:")
	for i, s := range stats {
		fmt.Printf("  node %d: %d cells\n", i, s.CellsHeld)
	}
}

// scalar runs a grand-total query and returns its one value.
func scalar(db *scidb.DB, q string) scidb.Value {
	res, err := db.Exec(q)
	mustErr(err)
	cell, ok := res.Array.At(scidb.Coord{1})
	if !ok {
		log.Fatalf("%s: no row", q)
	}
	return cell[0]
}

func mustErr(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
