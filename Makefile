.PHONY: ci check test invariants fuzz-smoke bench bench-parallel bench-obs bench-kernels bench-lot tracestat tracediff crash-demo ledger regress serve

# The full CI gate: vet + build + race-enabled tests (which hold the
# hot-path counter gates) + coverage floors + fuzz smoke + the smoke runs +
# one 5-sample benchmark pass with the streamed-lot speedup and 2-worker
# scaling gates. It writes no file in the repo.
ci:
	./ci.sh

# The pre-commit gate: static checks, the race-enabled suite, and the
# property-based invariant suites. Faster than `make ci` (no smoke runs or
# benchmarks); run `make ci` before merging.
check:
	go vet ./...
	go test -race ./...
	$(MAKE) invariants

test:
	go build ./... && go test ./...

# The seeded property-based invariant suites: the SUTP-vs-full-range
# differential oracle, bit-equivalence across worker counts and cache
# modes, fuzzy partition-of-unity, weight-file, trace, run-record and
# cache-segment round-trip closure, the frame codec's truncation and
# bit-flip properties, the encoder/parser grammar pins, and randstream's
# value-for-value match of math/rand's stream. Every proptest failure
# prints a -proptest.seed=N one-liner that replays the exact case.
invariants:
	go test -count=1 ./internal/search ./internal/fuzzy ./internal/neural \
		./internal/telemetry ./internal/obs ./internal/core ./internal/proptest \
		./internal/runstore ./internal/jobs ./internal/frame ./internal/cachestore \
		./internal/randstream

# Ten seconds of native fuzzing per target against the committed corpora.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzSUTPBounds$$' -fuzztime 10s ./internal/search/
	go test -run '^$$' -fuzz '^FuzzWeightFileParse$$' -fuzztime 10s ./internal/neural/
	go test -run '^$$' -fuzz '^FuzzTraceParse$$' -fuzztime 10s ./internal/obs/
	go test -run '^$$' -fuzz '^FuzzPromEncode$$' -fuzztime 10s ./internal/obs/
	go test -run '^$$' -fuzz '^FuzzFrameNext$$' -fuzztime 10s ./internal/frame/

# Every paper table/figure benchmark, one iteration each.
bench:
	go test -run '^$$' -bench . -benchtime 1x -timeout 60m .

# The worker-ladder benchmarks for the GA and shmoo hot paths.
bench-parallel:
	go test -run '^$$' -bench 'Parallel|MeasurementCache' -benchtime 1x -timeout 60m .

# The observability benchmarks: instrumented-flow cost vs the telemetry-off
# baseline.
bench-obs:
	go test -run '^$$' -bench 'Observability' -benchtime 1x -timeout 60m .

# The neural-kernel benchmarks with allocation profiling: train and the
# voting sweep through one caller-owned scratch that ProposeSeeds runs.
bench-kernels:
	go test -run '^$$' -bench 'LearningKernels' -benchmem -benchtime 20x -timeout 10m ./internal/neural/

# The fab-scale lot pipeline benchmarks: the frozen per-die loop baseline
# against streamed screening at workers 1/2/8, with the disk cache off,
# cold and warm (dies/sec, hit rate, allocs per die).
bench-lot:
	go test -run '^$$' -bench 'LotScreen' -benchtime 1x -timeout 60m .

# Record a short instrumented run and analyze its trace: per-phase cost
# rollups, the critical path, and a Chrome trace-event export to load at
# chrome://tracing or ui.perfetto.dev.
tracestat:
	go run ./cmd/characterize -learn-tests 20 -trace /tmp/repro-demo.jsonl > /dev/null
	go run ./cmd/tracestat -chrome /tmp/repro-demo.chrome.json /tmp/repro-demo.jsonl

# Record two instrumented runs at different parallelism and diff them:
# identical workloads diff to zero (the determinism contract makes logical
# cost exactly comparable), so any nonzero delta is a real workload change.
tracediff:
	go run ./cmd/characterize -learn-tests 20 -parallel 1 -trace /tmp/repro-old.jsonl > /dev/null
	go run ./cmd/characterize -learn-tests 20 -parallel 8 -trace /tmp/repro-new.jsonl > /dev/null
	go run ./cmd/tracestat diff -fail-over 20 /tmp/repro-old.jsonl /tmp/repro-new.jsonl

# Record three identical runs at different -parallel into a run ledger and
# list it: the content-addressed store collapses them into one record with
# three attempt sidecar lines.
ledger:
	go run ./cmd/characterize -learn-tests 20 -parallel 1 -run-dir /tmp/repro-ledger > /dev/null
	go run ./cmd/characterize -learn-tests 20 -parallel 8 -run-dir /tmp/repro-ledger > /dev/null
	go run ./cmd/tracestat ledger /tmp/repro-ledger

# Gate the ledger's newest record against the sliding-window baseline with
# the same semantics as `tracestat diff` — run `make ledger` first (twice,
# with a workload change in between, to see it trip).
regress:
	go run ./cmd/tracestat regress -fail-over 20 -min-measurements 10 /tmp/repro-ledger

# Boot the characterization job service: REST job API + run observatory +
# metrics on one port, with a crash-safe persistent queue. Submit work with
# curl (see the "Job service" section of the README); ^C shuts down cleanly
# and pending jobs resume on the next boot.
serve:
	go run ./cmd/charserved -listen 127.0.0.1:8080 \
		-queue-dir /tmp/repro-jobq -run-dir /tmp/repro-ledger

# Demonstrate the crash-bundle path end to end: inject a worker-pool panic
# and show the bundle (meta, flags, stacks, flight tail, metrics, report).
crash-demo:
	-go run ./cmd/characterize -learn-tests 20 -crash-dir /tmp/repro-crash -inject-fault task-panic
	ls /tmp/repro-crash/panic-*/
