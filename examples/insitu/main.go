// In-situ: the §2.9 scenario — "I am looking forward to getting something
// done, but I am still trying to load my data." An external NetCDF-like
// file is attached to the engine with no load step; the first query reads
// the file once into an in-memory store, and every later query reads the
// store.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"scidb"
	"scidb/internal/array"
	"scidb/internal/insitu"
)

func main() {
	// 1. An instrument wrote a 512x512 NCL file (our NetCDF stand-in).
	dir, err := os.MkdirTemp("", "scidb-insitu-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ocean.ncl")
	src := array.MustNew(&scidb.Schema{
		Name: "ocean",
		Dims: []scidb.Dimension{
			{Name: "lat", High: 512},
			{Name: "lon", High: 512},
		},
		Attrs: []scidb.Attribute{{Name: "sst", Type: scidb.TFloat64}},
	})
	if err := src.Fill(func(c scidb.Coord) scidb.Cell {
		return scidb.Cell{scidb.Float(15 + float64(c[0])/60 - float64(c[1])/90)}
	}); err != nil {
		log.Fatal(err)
	}
	if err := insitu.WriteNCL(path, src); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	fmt.Printf("external file: %s (%.1f MB)\n\n", filepath.Base(path), float64(fi.Size())/1e6)

	// 2. Attach — header only, no load.
	db := scidb.Open()
	start := time.Now()
	res, err := db.Exec("attach ocean from '" + path + "' using ncl")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s  (%v)\n", res.Msg, time.Since(start))

	// 3. A study-area query: the first query copies the file into the
	// array's store once; the subsample box is then a store read.
	start = time.Now()
	res, err = db.Exec("aggregate(subsample(ocean, lat >= 100 and lat <= 139 and lon >= 200 and lon <= 239), {}, avg(sst))")
	if err != nil {
		log.Fatal(err)
	}
	cell, _ := res.Array.At(scidb.Coord{1})
	fmt.Printf("study-area mean SST: %.3f  (first query: one read of the file, %v)\n", cell[0].Float, time.Since(start))

	// 4. A whole-array analysis reads the store, not the file.
	start = time.Now()
	res, err = db.Exec("aggregate(ocean, {}, max(sst), min(sst))")
	if err != nil {
		log.Fatal(err)
	}
	cell, _ = res.Array.At(scidb.Coord{1})
	fmt.Printf("global max/min SST: %.3f / %.3f  (store read, %v)\n",
		cell[0].Float, cell[1].Float, time.Since(start))

	start = time.Now()
	if _, err = db.Exec("aggregate(ocean, {}, count(sst))"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat whole-array query: pooled  (%v)\n", time.Since(start))

	// 5. The same file can also be bulk-converted to the self-describing
	// SDF format (what cmd/scidb-load -out does).
	sdfPath := filepath.Join(dir, "ocean.sdf")
	ds, err := (insitu.NCLAdaptor{}).Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	a, err := insitu.Materialize(ds)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(sdfPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := insitu.WriteSDF(f, a); err != nil {
		log.Fatal(err)
	}
	sfi, _ := os.Stat(sdfPath)
	fmt.Printf("\nconverted to self-describing SDF: %s (%.1f MB)\n",
		filepath.Base(sdfPath), float64(sfi.Size())/1e6)
}
