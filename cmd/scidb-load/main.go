// Command scidb-load is the streaming bulk loader front end (§2.8/§2.9).
// It opens an external file through an in-situ adaptor and either converts
// it to the self-describing SDF format or loads it into a running grid of
// scidb-server nodes, splitting the stream into site substreams.
//
// Grid loads run the ingest pipeline (loader.LoadParallel): the input is
// sharded by the adaptor, one shard per core, shards are parsed
// concurrently, and chunks are encoded (zone maps included) on the loader
// before being shipped in batches to their owning workers. A batch is sized
// from the transport's observed round-trip time: 16 chunks on fast links,
// up to 256 on slow ones.
//
//	scidb-load -in data.csv -adaptor csv -out data.sdf
//	scidb-load -in data.ncl -adaptor ncl -array sky -nodes 127.0.0.1:7101,127.0.0.1:7102
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/insitu"
	"scidb/internal/loader"
	"scidb/internal/partition"
)

func main() {
	in := flag.String("in", "", "input file")
	adaptorName := flag.String("adaptor", "csv", "input adaptor: csv, ncl, sdf")
	out := flag.String("out", "", "convert: write this SDF file and exit")
	arrayName := flag.String("array", "", "grid load: target array name")
	nodes := flag.String("nodes", "", "grid load: comma-separated worker addresses")
	splitDim := flag.Int("splitdim", 0, "grid load: dimension index to block-partition on")
	wireStats := flag.Bool("wire-stats", false, "grid load: print transport wire counters after the load")
	flag.Parse()

	if *in == "" {
		fail("need -in")
	}
	ad, err := insitu.ByName(*adaptorName)
	if err != nil {
		fail("%v", err)
	}
	ds, err := ad.Open(*in)
	if err != nil {
		fail("open %s: %v", *in, err)
	}
	defer ds.Close()

	switch {
	case *out != "":
		a, err := insitu.Materialize(ds)
		if err != nil {
			fail("materialize: %v", err)
		}
		f, err := os.Create(*out)
		if err != nil {
			fail("create %s: %v", *out, err)
		}
		defer f.Close()
		if err := insitu.WriteSDF(f, a); err != nil {
			fail("write sdf: %v", err)
		}
		fmt.Printf("converted %d cells from %s to %s\n", a.Count(), *in, *out)
	case *nodes != "":
		if *arrayName == "" {
			fail("grid load needs -array")
		}
		addrs := strings.Split(*nodes, ",")
		tr, err := cluster.DialTCP(addrs)
		if err != nil {
			fail("dial: %v", err)
		}
		defer tr.Close()
		co := cluster.NewCoordinator(tr, 0)
		schema := ds.Schema().Clone()
		schema.Name = *arrayName
		high := schema.Dims[*splitDim].High
		if high == array.Unbounded {
			high = 1 << 20
		}
		scheme := partition.Block{Nodes: len(addrs), SplitDim: *splitDim, High: high}
		if err := co.Create(*arrayName, schema, scheme); err != nil {
			fail("create: %v", err)
		}
		box := array.WholeBox(schemaBounded(schema))
		dest := loader.ClusterDest{Co: co, Array: *arrayName}
		stats, err := loader.LoadParallel(ds, box, schema, scheme, dest, loader.Options{})
		if err != nil {
			fail("load: %v", err)
		}
		fmt.Printf("loaded %d cells into %s across %d nodes (per-site: %v)\n",
			stats.Records, *arrayName, len(addrs), stats.PerSite)
		if *wireStats {
			if ts, ok := co.TransportStats(); ok {
				fmt.Printf("wire: %d calls, %d frames out / %d in, %d bytes out / %d in, round-trip %v\n",
					ts.Calls, ts.FramesOut, ts.FramesIn, ts.BytesOut, ts.BytesIn, ts.RoundTrip())
			}
		}
	default:
		fail("need -out (convert) or -nodes (grid load)")
	}
}

// schemaBounded pins unbounded dims so WholeBox covers a large range.
func schemaBounded(s *array.Schema) *array.Schema {
	cp := s.Clone()
	for i := range cp.Dims {
		if cp.Dims[i].High == array.Unbounded {
			cp.Dims[i].High = 1 << 40
		}
	}
	return cp
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
