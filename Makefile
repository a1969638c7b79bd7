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
# ROADMAP items 2 (ops + cluster + core), 8 (cluster + core + insitu), 14
# (loader + insitu, the ingest path) and 18 (partition + cluster, placement)
# measure, the switches over the parse
# tree in internal/core (each walk has one `case *parser.RegridExpr`; the
# one lowering is the only walk left), the count of exported
# Coordinator methods ROADMAP item 13 measures, the worker's wire ops (the
# cases of Worker.handle) and the fields of its Message envelope, which item 7
# counts, and the knobs: the fields of every `type …Options struct` in
# internal/ and the flags cmd/ defines.
loc:
	@for d in internal/*/; do \
		printf '%-24s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	done
	@printf '%-24s %6d\n' 'ops + cluster + core' $$(find internal/ops internal/cluster internal/core -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-24s %6d\n' 'cluster + core + insitu' $$(find internal/cluster internal/core internal/insitu -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-24s %6d\n' 'loader + insitu' $$(find internal/loader internal/insitu -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-24s %6d\n' 'partition + cluster' $$(find internal/partition internal/cluster -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-24s %6d\n' total $$(find internal -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf '%-24s %6d\n' 'core ArrayExpr walks' $$(find internal/core -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -c 'case \*parser.RegridExpr')
	@printf '%-24s %6d\n' 'Coordinator methods' $$(find internal/cluster -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -cE '^func \([a-z]+ \*Coordinator\) [A-Z]')
	@printf '%-24s %6d\n' 'worker ops' $$(find internal/cluster -name '*.go' ! -name '*_test.go' -exec cat {} + | awk '/^func \(w \*Worker\) handle\(/ {f = 1; next} f && /^\}/ {f = 0} f && /^\tcase "/ {n++} END {print n + 0}')
	@printf '%-24s %6d\n' 'Message fields' $$(find internal/cluster -name '*.go' ! -name '*_test.go' -exec cat {} + | awk '/^type Message struct \{/ {f = 1; next} f && /^\}/ {f = 0} f && !/^[ \t]*(\/\/|$$)/ {n++} END {print n + 0}')
	@printf '%-24s %6d\n' 'option fields' $$(find internal -name '*.go' ! -name '*_test.go' -exec cat {} + | awk '/^type [A-Za-z]*Options struct \{/ {f = 1; next} f && /^\}/ {f = 0} f && !/^[ \t]*(\/\/|$$)/ {n++} END {print n + 0}')
	@printf '%-24s %6d\n' 'CLI flags' $$(cat cmd/*/main.go | grep -cE 'flag\.(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)\(')

# Race detection over the concurrency-heavy packages (tier-1 verification
# runs this alongside `test`; the full -race ./... sweep is `race-all`).
# ./internal/storage includes the scan-prefetcher stress tests, and
# ./internal/compress the codecs' pooled readers, writers and rooms, which
# the prefetch goroutines share.
race:
	$(GO) test -race ./internal/compress ./internal/exec ./internal/ops ./internal/bufcache ./internal/storage ./internal/wire ./internal/cluster ./internal/obs ./internal/session ./internal/core ./internal/loader ./internal/insitu ./internal/partition ./internal/introspect

# Short fuzz smoke over the chunk/array decoders, the column codec against
# its reference (FuzzColumnRoundTrip), Auto's byte-plane records
# (FuzzAutoRecords: round trips, and arbitrary bytes behind its tag, each
# decoded alike into a nil, short, exact, long or dirty room), both
# hello readers
# (FuzzHello), the CSV line parser against its Split-based oracle
# (FuzzCSVLine), the CSV float kernel against strconv.ParseFloat
# (FuzzParseFloat), the predicate mask kernel against the cell definition it
# stands in for (FuzzPredMask), Filter against its per-cell definition
# (FuzzFilter), a sealed chunk against its open twin through every chunk
# reader, Select and MergeChunk of a selection included (FuzzChunkSeal), FuzzWorkerRead, the worker's read against its
# cell oracle, and FuzzStoreModel, a seeded sequence of store batches, puts,
# flushes, compactions and reopens against a newest-wins map. Each target must be invoked separately: `go test -fuzz` refuses a
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
	$(GO) test -run=NONE -fuzz=FuzzFilter -fuzztime=$(FUZZTIME) ./internal/ops
	$(GO) test -run=NONE -fuzz=FuzzChunkSeal -fuzztime=$(FUZZTIME) ./internal/ops
	$(GO) test -run=NONE -fuzz=FuzzWorkerRead -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run=NONE -fuzz=FuzzStoreModel -fuzztime=$(FUZZTIME) ./internal/storage

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
# Aggregate/Regrid), of the worker's boxed read of cells (each bucket the box
# cuts taken out by Select), of the worker's join of two partitions' chunk
# pairs (SS-DB Q7's node half), of the compiled-expression kernels (Filter, Apply), of
# the structural operators' (gather, join and filter kernels), of the worker's
# put of one coordinator drain into an empty, a buffered and a flushed
# origin, of the cold read
# path's (column and chunk decode — full, site-boundary and catalog chunks,
# and a 27 %-occupied chunk's allocations — and cold chunk scan), of the chunk encoder's and of a bucket section's seal
# and open, and of the CSV load path's (a shard's line scan, the float
# kernel against strconv, a shard through the ingest pipeline, with its B/op:
# a batch's payloads are encoded into a recycled buffer), of the worker's
# write of one 16-chunk loadchunks batch over TCP into a store on disk, with
# its B/op (the server reads each request into a recycled buffer and writes
# each bucket out of the one it was sealed in), and of one
# page of a gathered result through a session's writer, with its B/op (the
# server forwards the workers' chunk payloads, so a page costs it only its
# frame), so CI runs what `make bench` measures.
bench-smoke:
	$(GO) test -run=NONE -bench 'WorkerAgg|WorkerReadBoxFold|WorkerReadBoxCells|WorkerReadPredsFold|WorkerSjoin|WorkerPut|FoldChunk|ParallelFilter|ParallelApply|ParallelAggregate|ParallelRegrid|Structural' -benchtime=1x ./internal/cluster ./internal/ops
	$(GO) test -run=NONE -bench 'WorkerLoadChunks' -benchtime=1x -benchmem ./internal/cluster
	$(GO) test -run=NONE -bench 'DecodeColumn|DecodeChunk|DecodePartialChunk|StoreChunkScanCold|EncodeChunk|SealSection' -benchtime=1x -benchmem ./internal/storage
	$(GO) test -run=NONE -bench 'CSVShardScan|PipelineCSV|ParseFloat' -benchtime=1x -benchmem ./internal/insitu
	$(GO) test -run=NONE -bench 'SessionGatherPage' -benchtime=1x -benchmem ./internal/session

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
