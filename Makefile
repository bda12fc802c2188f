# Local and CI entry points — .github/workflows/ci.yml invokes exactly these
# targets, so a green `make ci` locally means a green CI run.

GO ?= go

.PHONY: build lint test race bench-check fuzz-smoke server-smoke docs ci

build:
	$(GO) build ./...

# gofmt + go vet + the repo's own contract analyzers (determinism, kernel
# selection-vector discipline, spill cleanup, context boundaries — see
# docs/LINT.md for the catalog and the //polaris:<key> escape grammar).
lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/polarisvet ./...

# -short skips the slow paper-figure experiments; the full suite
# (`go test ./...`, no -short) is the tier-1 verification run. The grace-join
# spill tests (tiny-budget determinism, fault injection, fuzz seed corpora)
# run in both.
test:
	$(GO) test -short ./...

# Race-check the whole tree. The hot spots: the morsel-driven parallel
# executor and the SQL surface that drives it — including the grace-join
# spill path (root spill_test.go and internal/exec/spill_test.go run
# tiny-budget spilling joins, the parallel partition-wise fan-out, and
# concurrent JoinBatches calls under -race on every push, and root
# mixed_plan_test.go runs statements that spill one join build and probe the
# other in memory, on the morsel pool and the DCP DAG), the
# queued-admission fabric leasing, the multi-session HTTP server (bounded
# concurrent-traffic stress with STO maintenance, the admission unit suite,
# and the two-session interleaved-transaction test), and the DCP job API
# (dcp.Start / Job.Run / Job.Close: retry/re-placement across batches and
# the job's cancellation watcher, exercised by the distributed-query path,
# which grows one job a stage at a time). `./...` rather than a package
# list so new packages are race-checked by default.
race:
	$(GO) test -race -short ./...

# One short pass of the repo benchmark (BENCHMARK.json, bench/README.md): five
# workloads for a second each, ~16 s in all. The numbers are discarded; the
# exit status is the benchmark's own correctness gate — DAG and spill results
# byte-identical to their references, acked commits all counted, zero leaked
# slots, sessions and exchange/spill blobs. A PR that moves an internal API
# out from under bench/, or breaks an identity the benchmark checks, fails
# here rather than in the benchmark pipeline.
bench-check:
	$(GO) run ./bench -seconds 1 -trace 0 >/dev/null

# Bounded fuzz exploration of the encoded-key machinery the spill path leans
# on (join/group keys, ORDER BY keys, spill batch round-trip), of the SQL
# parser (any text: statements or an error, never a panic — clients send it
# straight to Parse), and of the five decoders that take bytes from outside
# the process: the transient batch
# frame (arbitrary bytes in: a batch or an error, never a panic, never an
# allocation the input cannot back), the durable file reader (a reader or
# an error; on a reader every Stats, PruneInt, ReadRowGroup and ReadAll
# returns, never panics, and ReadColumn memoizes a vector, never an error,
# billing exactly what it keeps), the deletion-vector decoder (a vector or
# an error; a vector's runs are ascending, non-empty, non-adjacent and inside
# the uint32 row space, and it survives a Marshal round trip), the manifest
# decoder (actions or an error; every action passes Validate and re-encoding
# is stable) and the checkpoint decoder (a checkpoint or an error; its state
# names every file by a non-empty path), the catalog's key index (op
# sequences at all three isolation levels: every prefix scan and newest-key
# lookup equals a walk of every record, and every commit fails exactly when
# a brute-force validation says it must), plus the three
# evaluator-vs-reference targets
# in internal/exec (compiled kernels against the scalar evaluator, the
# aggregation operators against the scalar aggregator, and the join — in
# memory with and without its bloom filter, and spilled — against a
# nested-loop join).
# The seed corpora already run inside
# `make test`; this adds a few seconds of coverage-guided search per target on
# every push.
fuzz-smoke:
	$(GO) test -run NONE -fuzz '^FuzzAppendKey$$' -fuzztime 5s ./internal/colfile
	$(GO) test -run NONE -fuzz '^FuzzAppendSortKey$$' -fuzztime 5s ./internal/colfile
	$(GO) test -run NONE -fuzz '^FuzzBatchSpillRoundTrip$$' -fuzztime 5s ./internal/colfile
	$(GO) test -run NONE -fuzz '^FuzzUnmarshalBatch$$' -fuzztime 5s ./internal/colfile
	$(GO) test -run NONE -fuzz '^FuzzOpenReader$$' -fuzztime 5s ./internal/colfile
	$(GO) test -run NONE -fuzz '^FuzzDeletionVectorUnmarshal$$' -fuzztime 5s ./internal/deletevector
	$(GO) test -run NONE -fuzz '^FuzzManifestDecode$$' -fuzztime 5s ./internal/manifest
	$(GO) test -run NONE -fuzz '^FuzzUnmarshalCheckpoint$$' -fuzztime 5s ./internal/manifest
	$(GO) test -run NONE -fuzz '^FuzzCatalogIndex$$' -fuzztime 5s ./internal/catalog
	$(GO) test -run NONE -fuzz '^FuzzKernelEquivalence$$' -fuzztime 5s ./internal/exec
	$(GO) test -run NONE -fuzz '^FuzzAggEquivalence$$' -fuzztime 5s ./internal/exec
	$(GO) test -run NONE -fuzz '^FuzzJoinEquivalence$$' -fuzztime 5s ./internal/exec
	$(GO) test -run NONE -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/sql

# End-to-end lifecycle gate for the multi-session HTTP front end: boots
# polaris-server on an ephemeral port, health-checks it, runs DDL + DML + a
# query over HTTP, scrapes /metrics, drains, and verifies nothing leaked
# (zero leased slots, zero sessions). See docs/SERVER.md.
server-smoke:
	$(GO) run ./cmd/polaris-server -smoke

# Documentation gate: every relative markdown link AND #fragment anchor in
# the doc set must resolve, the docs/LINT.md analyzer catalog must match the
# polarisvet registry both ways (-lint-catalog), and the package docs for the
# public API and the executor must render (catches syntax-level doc rot).
docs:
	$(GO) run ./cmd/doccheck -lint-catalog docs/LINT.md \
		README.md ROADMAP.md PAPER.md CHANGES.md \
		docs/ARCHITECTURE.md docs/VECTORIZATION.md docs/PLANNER.md \
		docs/SERVER.md docs/DCP-QUERIES.md docs/LINT.md
	@$(GO) doc . >/dev/null
	@$(GO) doc ./internal/exec >/dev/null
	@$(GO) doc ./internal/colfile >/dev/null
	@echo "docs OK"

ci: build lint test race fuzz-smoke bench-check server-smoke docs
