GO ?= go

.PHONY: build test race vet noglobals faultmatrix mvccstress difffuzz fuzz covertraffic bench-short bench-json explain loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector run: the engine's concurrent read path is only correct
# if this stays clean, and the differential suites run in parallel here
# (t.Parallel), one execution mode per engine.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The engine's execution mode belongs to a DB (sqldb.Mode). This fails —
# printing the line — when a package-level switch (a mutable bool named
# Disable*/disable*/force*) reappears in non-test internal/sqldb: such a
# variable is a data race beside the lock-free read path and stops the
# differential suites from running in parallel.
noglobals:
	@! git grep -nE '^(var[ (]|[[:space:]]+)(Disable|disable|force)[A-Za-z]*[[:space:]]*(=|bool)' -- 'internal/sqldb/*.go' ':!*_test.go'

# The crash-recovery matrix: every WAL/snapshot/recovery unit test,
# the crash-at-every-I/O-point and error-kind fault matrices, and the
# detect-level crash+resume differential. -count=1 forces the faults
# to actually fire (no cached results).
faultmatrix:
	$(GO) test -count=1 -run 'TestWAL|TestFaultMatrix|TestResume|TestDetectThreeWayDifferential|TestDurableDSN|TestDSNOption' ./internal/sqldb/ ./internal/detect/ ./internal/sqldriver/

# MVCC stress: snapshot stability under racing DML/DDL, epoch GC
# accounting, the concurrency suite, pinned readers scanning the row
# chunks a writer's forks share (TestRowSegmentsDifferential), and a
# pinned reader whose tail newer readers seal with postings past its fence
# (TestValueSetProbeDifferential/pinned; -skip leaves out its random
# subtest) — all under the race detector, -count=1 so the interleavings
# actually rerun.
mvccstress:
	$(GO) test -race -count=1 -run 'TestSnapshotStability|TestSnapshotStable|TestEpochGC|TestConcurrent|TestRowSegmentsDifferential|TestValueSetProbeDifferential' -skip 'TestValueSetProbeDifferential/random' ./internal/sqldb/

# The randomized kernel differentials (batch kernels vs per-row closures
# vs nested loop), the segmented row store under random DML vs a mirror
# loaded fresh, the detector differential's random and transitions
# workloads (every detector leg vs the naive oracle) and the naive oracle
# vs the definitional checker, on a seed no earlier run has used. The
# seed is printed first: `go test ./internal/sqldb/ -run <test> -args
# -seed=<seed>` (or ./internal/detect/, ./internal/core/) replays a
# failure; without -seed the tests keep their fixed seeds.
difffuzz:
	@seed=$$(date +%s); echo "difffuzz: -seed=$$seed"; \
	$(GO) test -count=1 -run 'TestKernelClosureDifferential|TestOrKernelDifferential|TestValueSetProbeDifferential|TestCodedTextDifferential|TestCodedPreDedupDifferential|TestRowSegmentsDifferential' ./internal/sqldb/ -args -seed=$$seed && \
	$(GO) test -count=1 -run 'TestDetectThreeWayDifferential/^(random|transitions)$$/' ./internal/detect/ -args -seed=$$seed && \
	$(GO) test -count=1 -run 'TestNaiveDetectMatchesDefinition' ./internal/core/ -args -seed=$$seed

# Native fuzzing, ten seconds per (package, target) pair: the SQL lexer
# and parser never panic and every error they return carries a source
# offset (FuzzParse, seeded with the detector's generated statements);
# recovery's two decoders never panic either, fail with ErrCorrupt, and
# succeed only on input applied in full that leaves rows and indexes the
# executor can read (FuzzWALUnit, FuzzSnapshot, seeded with real
# encodings); the eCFD spec language never panics and only ever returns
# constraints that pass Validate (FuzzParseSpec); the DSN option grammar
# never panics, quotes the DSN in every error, and registers no engine
# for a DSN it refuses (FuzzParseDSN); two tuples get one grouping key
# exactly when every position is Identical (FuzzKeyOf); the service's
# check and update bodies never panic in decoding and fail only with a
# typed bad_request (FuzzDecodeRows). A failure writes its input under the
# package's testdata/fuzz/, which `go test` then replays.
FUZZ_TARGETS = internal/sqldb:FuzzParse internal/sqldb:FuzzWALUnit internal/sqldb:FuzzSnapshot internal/core:FuzzParseSpec internal/sqldriver:FuzzParseDSN internal/relation:FuzzKeyOf internal/server:FuzzDecodeRows

fuzz:
	for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; f=$${pt#*:}; \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime=10s ./$$pkg/ || exit 1; \
	done

# Which internal/sqldb code product traffic reaches: the four workloads
# of the repository benchmark (3 s each), `ecfdbench -explain` and
# `ecfdbench -fig 5c`, run from coverage builds in .bench_build/cover/;
# prints the internal/sqldb functions none of them entered. Each build's
# -coverpkg names its main package as well: a binary whose main package
# is not covered writes no counter file. The benchmark builds from
# benchmark/ and runs in .bench_build/cover/, where its out/ directory
# goes: nothing is written under benchmark/.
COVER = .bench_build/cover

covertraffic:
	rm -rf $(COVER) && mkdir -p $(COVER)/counters
	cd benchmark && GOWORK=off $(GO) build -cover -coverpkg=ecfd/benchmark,ecfd/internal/sqldb -o ../$(COVER)/ecfd-benchmark .
	$(GO) build -cover -coverpkg=ecfd/cmd/ecfdbench,ecfd/internal/sqldb -o $(COVER)/ecfdbench ./cmd/ecfdbench
	cd $(COVER) && for w in batch_40k inc_40k serve_check_10k serve_mixed_10k; do \
		GOCOVERDIR=counters ./ecfd-benchmark -workload $$w -seconds 3 -trace 0 > /dev/null || exit 1; \
	done
	cd $(COVER) && GOCOVERDIR=counters ./ecfdbench -explain > /dev/null && GOCOVERDIR=counters ./ecfdbench -fig 5c > /dev/null
	$(GO) tool covdata textfmt -pkg=ecfd/internal/sqldb -i=$(COVER)/counters -o $(COVER)/sqldb.cover
	@$(GO) tool cover -func=$(COVER)/sqldb.cover | awk '$$NF == "0.0%"'

# Quick perf signal: the two acceptance benchmarks plus the planner
# ablation, a few iterations each.
bench-short:
	$(GO) test -run XXX -bench 'BenchmarkBatchDetect10k|BenchmarkFig5a|BenchmarkPlanner' -benchtime 3x .

# Machine-readable figure series of the paper's plots. The repository
# benchmark — workloads, metrics, regression bounds — is
# `bash benchmark/run.sh` (BENCHMARK.json, benchmark/README.md).
bench-json:
	$(GO) run ./cmd/ecfdbench -scale 0.1 -json

# Query plans of the detector's fixed statement set.
explain:
	$(GO) run ./cmd/ecfdbench -explain

# Non-test Go lines (wc -l): each directory of the tracked set, the
# tracked set itself, and the root module — everything but benchmark/,
# a module of its own, and hidden directories (.bench_build/).
LOC_DIRS = internal/detect internal/sqldb internal/bench cmd

loc:
	@n() { find "$$@" \( -path './.*' -o -path ./benchmark \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l; }; \
	for d in $(LOC_DIRS); do printf '%-16s %6d\n' $$d $$(n $$d); done; \
	printf '%-16s %6d\n' tracked $$(n $(LOC_DIRS)) 'root module' $$(n .)

ci: vet noglobals build test race
