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

# The crash-recovery matrix: every WAL/snapshot/recovery unit test
# (TestWALOneSyncPerCommit: one sync per commit under fsync=always, from
# one writer or several, and acknowledged rows survive a power cut), a
# rolled-back transaction leaving the log untouched, the
# crash-at-every-I/O-point and error-kind fault matrices, and the
# detect-level crash+resume differential. -count=1 forces the faults to actually fire (no cached
# results).
faultmatrix:
	$(GO) test -count=1 -run 'TestWAL|TestNoOpUpdateInTransaction|TestFaultMatrix|TestResume|TestDetectThreeWayDifferential|TestDurableDSN|TestDSNOption' ./internal/sqldb/ ./internal/detect/ ./internal/sqldriver/

# MVCC stress: snapshot stability under racing DML/DDL, epoch GC
# accounting, the concurrency suite, pinned readers scanning the row
# segments a writer's forks share (TestRowSegmentsDifferential), a
# pinned reader whose tail the writer seals with postings past its fence
# (TestValueSetProbeDifferential/pinned; -skip leaves out its random
# subtest), readers pinned at three fences of a tail the writer appends
# to, seals and moves past (TestTailSealBesidePinnedReaders), the
# transaction rule (TestTxSemantics: own writes, outside
# writers wait, a rollback visible to no pin) and concurrent fsync=always
# writers; then readers beside the detector's updates, in the library
# and over HTTP, each of which must see one update boundary — all under
# the race detector, -count=1 so the interleavings actually rerun.
mvccstress:
	$(GO) test -race -count=1 -run 'TestSnapshotStability|TestSnapshotStable|TestEpochGC|TestConcurrent|TestRowSegmentsDifferential|TestValueSetProbeDifferential|TestTailSealBesidePinnedReaders|TestTxSemantics|TestWALOneSyncPerCommit' -skip 'TestValueSetProbeDifferential/random' ./internal/sqldb/
	$(GO) test -race -count=1 -run 'TestReadersSeeWholeUpdates|TestViolationsStreamSeesWholeUpdates' ./internal/detect/ ./internal/server/

# The randomized kernel differentials (batch kernels vs per-row closures
# vs nested loop), the planner's property suite (planned joins, kernels
# on and off, vs nested loop), the segmented row store under random DML vs a mirror
# loaded fresh, the detector differential's random and transitions
# workloads (every detector leg vs the naive oracle) and the naive oracle
# vs the definitional checker, on a seed no earlier run has used. The
# seed is printed first: `go test ./internal/sqldb/ -run <test> -args
# -seed=<seed>` (or ./internal/detect/, ./internal/core/) replays a
# failure; without -seed the tests keep their fixed seeds.
difffuzz:
	@seed=$$(date +%s); echo "difffuzz: -seed=$$seed"; \
	$(GO) test -count=1 -run 'TestKernelClosureDifferential|TestOrKernelDifferential|TestPropertyPlannerNestedLoopEquivalence|TestValueSetProbeDifferential|TestCodedTextDifferential|TestCodedPreDedupDifferential|TestRowSegmentsDifferential' ./internal/sqldb/ -args -seed=$$seed && \
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
# prints the internal/sqldb functions none of them entered, then every
# block of three or more statements none of them reached in the
# executor's files (a dead branch inside a function traffic enters).
# Each build's -coverpkg names its main package as well: a binary whose
# main package is not covered writes no counter file. The benchmark builds from
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
	@echo "unreached blocks of >= 3 statements:"
	@awk -F'[: ]' '$$1 ~ /\/(batch|plan|compile|subquery|exec|dml)\.go$$/ { \
		sub(/.*\//, "", $$1); k = $$1 ":" $$2; n[k] = $$3; hit[k] += $$4 } \
		END { for (k in n) if (!hit[k] && n[k] >= 3) print k, n[k] " stmts" }' \
		$(COVER)/sqldb.cover | sort -t: -k1,1 -k2,2n

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
