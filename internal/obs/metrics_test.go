package obs

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers one registry from many goroutines doing
// get-or-create, updates, snapshots, and scrapes simultaneously. Run under
// -race (the Makefile race target includes this package).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const iters = 500
	var wg sync.WaitGroup
	names := []string{"scidb_test_a_total", "scidb_test_b_total", "scidb_test_c_total"}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := r.Counter(names[i%len(names)], "stress counter")
				c.Inc()
				g := r.Gauge("scidb_test_gauge", "stress gauge")
				g.Add(1)
				h := r.Histogram("scidb_test_seconds", "stress histogram", nil)
				h.Observe(float64(i%7) * 0.001)
				if i%97 == 0 {
					_ = r.Snapshot()
					r.WriteProm(&strings.Builder{})
				}
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	var total float64
	for _, n := range names {
		v, ok := snap.Get(n)
		if !ok {
			t.Fatalf("missing counter %s", n)
		}
		total += v
	}
	if want := float64(workers * iters); total != want {
		t.Fatalf("counter total = %v, want %v", total, want)
	}
	if v, _ := snap.Get("scidb_test_gauge"); v != float64(workers*iters) {
		t.Fatalf("gauge = %v, want %d", v, workers*iters)
	}
	if v, _ := snap.Get("scidb_test_seconds_count"); v != float64(workers*iters) {
		t.Fatalf("hist count = %v, want %d", v, workers*iters)
	}
}

// TestHistogramBuckets is a property test over random bucket boundaries and
// observations: every observation must land in exactly the first bucket
// whose bound is >= the value (inclusive "le" semantics), the bucket total
// must equal the count, and the cumulative Prometheus rendering must be
// monotonic ending at the count.
func TestHistogramBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nb := 1 + rng.Intn(8)
		bounds := make([]float64, nb)
		for i := range bounds {
			bounds[i] = rng.Float64() * 100
		}
		sort.Float64s(bounds)
		h := newHistogram(bounds)

		n := 200
		want := make([]int64, nb+1)
		var sum float64
		for i := 0; i < n; i++ {
			var v float64
			if i%5 == 0 && nb > 0 {
				v = bounds[rng.Intn(nb)] // exact boundary: must be inclusive
			} else {
				v = rng.Float64() * 120
			}
			h.Observe(v)
			sum += v
			idx := sort.SearchFloat64s(bounds, v) // first bound >= v
			want[idx]++
		}

		s := h.Snapshot()
		if s.Count != int64(n) {
			t.Fatalf("trial %d: count = %d, want %d", trial, s.Count, n)
		}
		if math.Abs(s.Sum-sum) > 1e-6*math.Max(1, math.Abs(sum)) {
			t.Fatalf("trial %d: sum = %v, want %v", trial, s.Sum, sum)
		}
		var tot int64
		for i, b := range s.Buckets {
			if b != want[i] {
				t.Fatalf("trial %d: bucket %d = %d, want %d (bounds %v)", trial, i, b, want[i], bounds)
			}
			tot += b
		}
		if tot != s.Count {
			t.Fatalf("trial %d: bucket total %d != count %d", trial, tot, s.Count)
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("scidb_delta_total", "")
	c.Add(10)
	before := r.Snapshot()
	c.Add(7)
	d := r.Snapshot().Delta(before)
	if v, _ := d.Get("scidb_delta_total"); v != 7 {
		t.Fatalf("delta = %v, want 7", v)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("scidb_fmt_total", "a counter").Add(3)
	r.Histogram("scidb_fmt_seconds", "a histogram", []float64{0.1, 1}).Observe(0.5)
	r.RegisterFunc("scidb_fmt_cache", "a collector family", KindGauge, func(emit func(Sample)) {
		emit(Sample{Name: "scidb_fmt_cache_hits_total", Value: 9})
		emit(Sample{Name: "scidb_fmt_cache_hits_total", Label: `node="1"`, Value: 4})
	})
	var b strings.Builder
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE scidb_fmt_total counter",
		"scidb_fmt_total 3",
		`scidb_fmt_seconds_bucket{le="0.1"} 0`,
		`scidb_fmt_seconds_bucket{le="1"} 1`,
		`scidb_fmt_seconds_bucket{le="+Inf"} 1`,
		"scidb_fmt_seconds_sum 0.5",
		"scidb_fmt_seconds_count 1",
		"scidb_fmt_cache_hits_total 9",
		`scidb_fmt_cache_hits_total{node="1"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteProm output missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("scidb_http_total", "").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics": "scidb_http_total 1",
		"/healthz": "ok",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(b.String(), want) {
			t.Fatalf("GET %s = %d %q, want 200 containing %q", path, resp.StatusCode, b.String(), want)
		}
	}
}

// TestSnapshotLeavesHistogramCount: a snapshot is a read, so taking one any
// number of times leaves a histogram's count and sum where they were.
func TestSnapshotLeavesHistogramCount(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("scidb_snap_seconds", "", nil)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	before := r.Snapshot()
	for i := 0; i < 10; i++ {
		_ = r.Snapshot()
	}
	after := r.Snapshot()
	for _, name := range []string{"scidb_snap_seconds_count", "scidb_snap_seconds_sum"} {
		b, _ := before.Get(name)
		a, ok := after.Get(name)
		if !ok || a != b {
			t.Errorf("%s = %v after snapshots, %v before", name, a, b)
		}
	}
	if c, _ := after.Get("scidb_snap_seconds_count"); c != 1000 {
		t.Errorf("count = %v, want 1000", c)
	}
}
