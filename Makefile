GO ?= go

.PHONY: all build test vet race bench bench-smoke bench-suite experiments obs profile loc

all: build test vet race fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Non-test Go lines per internal package and in total: the number every PR
# reports (bench/ is its own module and is not counted), with the subtotals
# ROADMAP items 2 (ops + cluster + core), 8 (cluster + core + insitu) and 14
# (loader + insitu, the ingest path) measure, and the count of exported
# Coordinator methods ROADMAP item 13 measures.
loc:
	@for d in internal/*/; do \
		printf '%-24s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done
	@printf '%-24s %6d\n' 'ops + cluster + core' $$(find internal/ops internal/cluster internal/core -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-24s %6d\n' 'cluster + core + insitu' $$(find internal/cluster internal/core internal/insitu -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-24s %6d\n' 'loader + insitu' $$(find internal/loader internal/insitu -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-24s %6d\n' total $$(find internal -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-24s %6d\n' 'Coordinator methods' $$(find internal/cluster -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -cE '^func \([a-z]+ \*Coordinator\) [A-Z]')

# Race detection over the concurrency-heavy packages (tier-1 verification
# runs this alongside `test`; the full -race ./... sweep is `race-all`).
# ./internal/storage includes the scan-prefetcher stress tests.
race:
	$(GO) test -race ./internal/exec ./internal/ops ./internal/bufcache ./internal/storage ./internal/wire ./internal/cluster ./internal/obs ./internal/session ./internal/core ./internal/loader ./internal/insitu ./internal/partition ./internal/introspect

# Short fuzz smoke over the chunk/array decoders, the column codec against
# its reference (FuzzColumnRoundTrip), Auto's byte-plane records
# (FuzzAutoRecords: round trips, and arbitrary bytes behind its tag), both
# hello readers
# (FuzzHello), the CSV line parser against its Split-based oracle
# (FuzzCSVLine), the CSV float kernel against strconv.ParseFloat
# (FuzzParseFloat), the predicate mask kernel against the cell definition it
# stands in for (FuzzPredMask) and, FuzzWorkerRead, the worker's read against
# its cell oracle. Each target must be invoked separately: `go test -fuzz` refuses a
# pattern matching more than one fuzz function.
FUZZTIME ?= 10s
.PHONY: fuzz
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecodeChunk -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run=NONE -fuzz=FuzzDecodeArray -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run=NONE -fuzz=FuzzDecodeZoneMap -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run=NONE -fuzz=FuzzColumnRoundTrip -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -run=NONE -fuzz=FuzzAutoRecords -fuzztime=$(FUZZTIME) ./internal/compress
	$(GO) test -run=NONE -fuzz=FuzzHello -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeSessionFrame -fuzztime=$(FUZZTIME) ./internal/session
	$(GO) test -run=NONE -fuzz=FuzzCSVShardSplit -fuzztime=$(FUZZTIME) ./internal/insitu
	$(GO) test -run=NONE -fuzz=FuzzCSVLine -fuzztime=$(FUZZTIME) ./internal/insitu
	$(GO) test -run=NONE -fuzz=FuzzParseFloat -fuzztime=$(FUZZTIME) ./internal/insitu
	$(GO) test -run=NONE -fuzz=FuzzDecodeClusterMessage -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run=NONE -fuzz=FuzzPredMask -fuzztime=$(FUZZTIME) ./internal/ops
	$(GO) test -run=NONE -fuzz=FuzzWorkerRead -fuzztime=$(FUZZTIME) ./internal/cluster

.PHONY: race-all
race-all:
	$(GO) test -race ./...

# The per-layer micro-benchmarks (operator kernels, worker kernels, store
# chunk scan warm and cold, column decode per encoding, a CSV shard's line
# scan, the float kernel and a CSV shard through the ingest pipeline into a
# store) report ns/cell or ns/line
# beside allocs/op; the root package holds the end-to-end ones.
bench:
	$(GO) test -run=NONE -bench=. -benchmem . ./internal/ops ./internal/cluster ./internal/storage ./internal/insitu

# One iteration of the fold kernels' micro-benchmarks (worker fold, whole
# partition, boxed and under predicates; one chunk through Fold.Chunk; local
# Aggregate/Regrid), of the
# structural operators' (gather, join and filter kernels), of the cold read
# path's (column and chunk decode — full, site-boundary and catalog chunks —
# and cold chunk scan), of the chunk encoder's and of a bucket section's seal
# and open, and of the CSV load path's (a shard's line scan, the float
# kernel against strconv, a shard through the ingest pipeline), so CI runs
# what `make bench` measures.
bench-smoke:
	$(GO) test -run=NONE -bench 'WorkerAgg|WorkerReadBoxFold|WorkerReadPredsFold|FoldChunk|ParallelAggregate|ParallelRegrid|Structural' -benchtime=1x ./internal/cluster ./internal/ops
	$(GO) test -run=NONE -bench 'DecodeColumn|DecodeChunk|StoreChunkScanCold|EncodeChunk|SealSection' -benchtime=1x ./internal/storage
	$(GO) test -run=NONE -bench 'CSVShardScan|PipelineCSV|ParseFloat' -benchtime=1x ./internal/insitu

# The standing benchmark suite is its own module under bench/, which the
# root `go test ./...` never reaches: vet and test it, then run one short
# checked round of the pushdown workload warm (worker-side execution) and
# cold (bucket read + decode under it), of the gather workload
# (coordinator-side ops) and of the bulk load (the worker's write ops).
bench-suite:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh --workload ssdb.pushdown.warm --seconds 5 --trace 0 | tail -n 1 | grep -q '"failed":0'
	bash bench/run.sh --workload ssdb.pushdown.cold --seconds 5 --trace 0 | tail -n 1 | grep -q '"failed":0'
	bash bench/run.sh --workload ssdb.gather --seconds 5 --trace 0 | tail -n 1 | grep -q '"failed":0'
	bash bench/run.sh --workload load.bulk --seconds 5 --trace 0 | tail -n 1 | grep -q '"failed":0'

experiments:
	$(GO) run ./cmd/scidb-bench -quick

# Telemetry overhead: the traced/untraced benchmark pair that substantiates
# the "<3% traced, ~0% off" overhead claim.
obs:
	$(GO) test -run=NONE -bench 'BenchmarkParallelFilter' -benchmem ./internal/ops

# Run the experiment suite with a live /metrics + pprof endpoint; point a
# profiler at http://127.0.0.1:9090/debug/pprof/ while it runs.
profile:
	$(GO) run ./cmd/scidb-bench -metrics-addr 127.0.0.1:9090
