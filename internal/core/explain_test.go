package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"scidb/internal/array"
	"scidb/internal/cluster"
	"scidb/internal/obs"
)

func seedGrid(t *testing.T, db *Database) {
	t.Helper()
	exec(t, db, "define array T (v = float) (x, y)")
	exec(t, db, "create array G as T [6, 6]")
	for _, src := range []string{
		"insert into G [1, 1] values (1.0)",
		"insert into G [2, 3] values (2.0)",
		"insert into G [5, 5] values (3.0)",
		"insert into G [6, 2] values (4.0)",
	} {
		exec(t, db, src)
	}
}

func TestExplainPlanTree(t *testing.T) {
	db := testDB()
	seedGrid(t, db)
	r := exec(t, db, "explain aggregate(filter(G, v > 1), {x}, sum(v))")
	for _, want := range []string{"aggregate", "filter", "scan G", "└─"} {
		if !strings.Contains(r.Msg, want) {
			t.Errorf("plan missing %q:\n%s", want, r.Msg)
		}
	}
	if r.Array != nil {
		t.Error("plain EXPLAIN must not execute the query")
	}
	// EXPLAIN of a store statement names the target without storing.
	r = exec(t, db, "explain store filter(G, v > 1) into F")
	if !strings.Contains(r.Msg, "store into F") {
		t.Errorf("store plan missing target:\n%s", r.Msg)
	}
	if _, err := db.Exec("F"); err == nil {
		t.Error("EXPLAIN STORE actually stored")
	}
	// Non-query statements fall back to the formatted statement.
	r = exec(t, db, "explain insert into G [3, 3] values (9.0)")
	if !strings.Contains(r.Msg, "insert into G") {
		t.Errorf("explain insert = %q", r.Msg)
	}
}

func TestExplainAnalyzeProfile(t *testing.T) {
	db := testDB()
	seedGrid(t, db)
	r := exec(t, db, "explain analyze aggregate(filter(G, v > 1), {x}, sum(v))")
	for _, want := range []string{"aggregate", "filter", "scan G", "cells_out"} {
		if !strings.Contains(r.Msg, want) {
			t.Errorf("profile missing %q:\n%s", want, r.Msg)
		}
	}
	// The filter's span counts the chunk-parallel work it scheduled.
	if !strings.Contains(r.Msg, "chunks=") {
		t.Errorf("profile missing operator chunk counters:\n%s", r.Msg)
	}
}

// TestExplainAnalyzeCluster is the acceptance scenario: on a >=2-node
// cluster the profile tree must break work down per node.
func TestExplainAnalyzeCluster(t *testing.T) {
	tr := cluster.NewLocal(2)
	defer tr.Close()
	co := cluster.NewCoordinator(tr, 0)
	db := testDB()
	db.AttachCluster(co)

	exec(t, db, "define array T (v = float) (x, y)")
	r := exec(t, db, "create array D as T [8, 8]")
	if !strings.Contains(r.Msg, "across 2 nodes") {
		t.Fatalf("create not routed to cluster: %q", r.Msg)
	}
	for i := 1; i <= 8; i++ {
		exec(t, db, "insert into D ["+string(rune('0'+i))+", 1] values (2.0)")
	}

	// Aggregate over a direct cluster ref pushes down: per-node partials,
	// per-node spans in the tree.
	r = exec(t, db, "explain analyze aggregate(D, {}, sum(v))")
	for _, want := range []string{"node 0: read fold", "node 1: read fold", "cells_scanned"} {
		if !strings.Contains(r.Msg, want) {
			t.Errorf("cluster profile missing %q:\n%s", want, r.Msg)
		}
	}

	// A filtered query gathers (ScanCtx) and still shows both nodes.
	r = exec(t, db, "explain analyze filter(D, v > 1)")
	if !strings.Contains(r.Msg, "node 0: read cells") || !strings.Contains(r.Msg, "node 1: read cells") {
		t.Errorf("gather profile missing node breakdown:\n%s", r.Msg)
	}

	// The query itself returns the right data through the cluster path.
	res := exec(t, db, "aggregate(D, {}, sum(v))")
	if res.Array == nil || res.Array.Count() != 1 {
		t.Fatalf("cluster aggregate returned %+v", res.Array)
	}
	var sum float64
	res.Array.Iter(func(_ array.Coord, cell array.Cell) bool {
		sum = cell[0].Float
		return true
	})
	if sum != 16 {
		t.Errorf("cluster sum = %v, want 16", sum)
	}
	if !containsName(db.Names(), "D") {
		t.Errorf("Names() missing cluster array: %v", db.Names())
	}
	if err := db.Drop("D"); err != nil {
		t.Fatalf("drop cluster array: %v", err)
	}
	if containsName(db.Names(), "D") {
		t.Error("cluster array survived Drop")
	}
}

func containsName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func TestSlowStatementLog(t *testing.T) {
	db := testDB()
	seedGrid(t, db)
	var buf bytes.Buffer
	db.SetSlowQuery(time.Nanosecond, &buf)
	exec(t, db, "filter(G, v > 1)")
	out := buf.String()
	if !strings.Contains(out, "slow statement") || !strings.Contains(out, "filter") {
		t.Fatalf("slow log missing profile:\n%s", out)
	}
	db.SetSlowQuery(0, nil)
	buf.Reset()
	exec(t, db, "filter(G, v > 1)")
	if buf.Len() != 0 {
		t.Errorf("disarmed slow log still wrote: %q", buf.String())
	}
}

func TestQueryHistogramObserves(t *testing.T) {
	db := testDB()
	seedGrid(t, db)
	before := obs.Default().Snapshot()
	exec(t, db, "filter(G, v > 1)")
	exec(t, db, "aggregate(G, {x}, sum(v))")
	after := obs.Default().Snapshot()
	a, _ := after.Get("scidb_query_seconds_count")
	b, _ := before.Get("scidb_query_seconds_count")
	delta := a - b
	if delta < 2 {
		t.Errorf("scidb_query_seconds_count advanced by %v, want >= 2", delta)
	}
}
