#!/bin/sh
# CI gate for the repo: static checks (go vet, gofmt), a vet and smoke
# test of the benchmark module, a check that every -race -run pattern
# alternative still names a test, the race-enabled test suite,
# per-package coverage floors, a fuzz smoke pass over the native fuzz
# targets, smoke runs of telemetry, live observability, tracestat, the run
# ledger, crash bundles and the job service, a race-enabled fleet
# determinism pass, and one benchmark pass.
#
# The hot-path counter gates are Go tests beside the benchmarks they bound,
# so `go test ./...` enforces them: kernel allocations per op
# (internal/neural, in both the race and the coverage pass),
# lot mallocs per die, warm-cache hit rate and segment size, and the ATE
# measurements of the lot, fig. 5, Table 1 and instrumented flows. The
# benchmark pass holds the two wall-clock gates on medians of five samples:
# a streamed lot must screen >= 2x the dies/sec of the per-die loop, and on
# a host with >= 2 CPUs a 2-worker lot >= 1.4x a 1-worker one. It prints
# its medians and writes no file.
set -eu
cd "$(dirname "$0")"

echo "== go vet =="
go vet ./...
echo "== gofmt =="
UNFORMATTED=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$UNFORMATTED" ]; then
	echo "FAIL: gofmt -l lists files that need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi
echo "== go build =="
go build ./...

# bench/ is its own module, so the root go build skips it. Vetting it and
# running its smoke test (two units of each workload against the pinned
# digests) catches an exported-API change that would break charbench.
echo "== benchmark module =="
(cd bench && go vet ./charbench && go test -count=1 ./charbench)

# The -run patterns of the fleet determinism pass near the end, per
# package. Each |-alternative must list at least one test, checked before
# any race run, so a deleted or renamed test cannot silently drop out of
# the pass.
RACE_PARALLEL='TestStream|TestForEach|TestRun'
RACE_CORE='TestOptimizeDeterministic|TestOptimizeTraceIdentical|TestReplicatedDeterministic|TestScreenLotStream|TestProposeSeeds|TestFitnessBatch|TestTable1TraceIdentical|TestTable1Deterministic|TestMeasureTests'
RACE_SHMOO='TestAddTestsOn'
echo "== -race -run patterns =="
# check_race_run PKG PATTERN fails unless every |-alternative of PATTERN
# lists a test in PKG.
check_race_run() {
	for alt in $(printf '%s' "$2" | tr '|' ' '); do
		go test -list "$alt" "$1" | grep -q '^Test' || {
			echo "FAIL: -race -run alternative '$alt' lists no test in $1" >&2
			exit 1
		}
	done
}
check_race_run ./internal/parallel/ "$RACE_PARALLEL"
check_race_run ./internal/core/ "$RACE_CORE"
check_race_run ./internal/shmoo/ "$RACE_SHMOO"
echo "every -race -run alternative lists a test"

echo "== go test -race =="
go test -race ./...

echo "== coverage floors =="
# Per-package statement-coverage floors, pinned ~10 points under the levels
# measured when the invariant harness landed, so a PR that deletes or skips
# tests fails loudly while normal refactoring has headroom. Raise a floor
# when a package's coverage durably improves; never lower one to make CI
# pass.
COVER_TXT=$(mktemp)
go test -count=1 -cover ./internal/... > "$COVER_TXT" || {
	cat "$COVER_TXT" >&2
	rm -f "$COVER_TXT"
	exit 1
}
cat "$COVER_TXT"
awk '
	BEGIN {
		floor["repro/internal/ate"] = 80
		floor["repro/internal/cachestore"] = 80
		floor["repro/internal/charspec"] = 80
		floor["repro/internal/cli"] = 70
		floor["repro/internal/core"] = 80
		floor["repro/internal/dut"] = 85
		floor["repro/internal/frame"] = 90
		floor["repro/internal/fuzzy"] = 80
		floor["repro/internal/genetic"] = 85
		floor["repro/internal/jobs"] = 65
		floor["repro/internal/neural"] = 80
		floor["repro/internal/obs"] = 80
		floor["repro/internal/parallel"] = 85
		floor["repro/internal/pdn"] = 85
		floor["repro/internal/proptest"] = 60
		floor["repro/internal/randstream"] = 88
		floor["repro/internal/runstore"] = 80
		floor["repro/internal/search"] = 80
		floor["repro/internal/shmoo"] = 80
		floor["repro/internal/telemetry"] = 80
		floor["repro/internal/telemetry/flight"] = 85
		floor["repro/internal/testgen"] = 85
		floor["repro/internal/trippoint"] = 80
		floor["repro/internal/wcr"] = 90
		fail = 0
	}
	$1 == "ok" && $2 in floor {
		seen[$2] = 1
		for (i = 3; i <= NF; i++) {
			if ($i ~ /^[0-9.]+%$/) {
				pct = $i; sub(/%/, "", pct)
				if (pct + 0 < floor[$2]) {
					printf "FAIL: %s coverage %.1f%% below floor %d%%\n", $2, pct, floor[$2] > "/dev/stderr"
					fail = 1
				}
			}
		}
	}
	END {
		for (pkg in floor) {
			if (!(pkg in seen)) {
				printf "FAIL: no coverage result for %s (package removed or tests failed)\n", pkg > "/dev/stderr"
				fail = 1
			}
		}
		exit fail
	}
' "$COVER_TXT" || { rm -f "$COVER_TXT"; exit 1; }
rm -f "$COVER_TXT"
echo "all per-package coverage floors hold"

echo "== fuzz smoke (10s per target) =="
# Each native fuzz target runs briefly against its committed seed corpus
# plus fresh mutations. A crasher here means a parser or search-bounds
# invariant broke; reproduce with the corpus file Go writes to
# testdata/fuzz/<Target>/.
go test -run '^$' -fuzz '^FuzzSUTPBounds$' -fuzztime 10s ./internal/search/
go test -run '^$' -fuzz '^FuzzWeightFileParse$' -fuzztime 10s ./internal/neural/
go test -run '^$' -fuzz '^FuzzTraceParse$' -fuzztime 10s ./internal/obs/
go test -run '^$' -fuzz '^FuzzPromEncode$' -fuzztime 10s ./internal/obs/
go test -run '^$' -fuzz '^FuzzFrameNext$' -fuzztime 10s ./internal/frame/
echo "all fuzz targets clean"

echo "== telemetry smoke run =="
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
go run ./cmd/characterize -learn-tests 20 -parallel 1 -report \
	-trace "$SMOKE_DIR/p1.jsonl" -metrics "$SMOKE_DIR/metrics.json" > "$SMOKE_DIR/report.txt"
go run ./cmd/characterize -learn-tests 20 -parallel 4 \
	-trace "$SMOKE_DIR/p4.jsonl" > /dev/null
cmp "$SMOKE_DIR/p1.jsonl" "$SMOKE_DIR/p4.jsonl" || {
	echo "FAIL: telemetry trace differs between -parallel 1 and -parallel 4" >&2
	exit 1
}
grep -q "run report: characterize" "$SMOKE_DIR/report.txt" || {
	echo "FAIL: smoke run produced no run report" >&2
	exit 1
}
echo "trace deterministic across worker counts ($(wc -l < "$SMOKE_DIR/p1.jsonl") events); report and metrics written"

echo "== live observability smoke run =="
go build -o "$SMOKE_DIR/characterize" ./cmd/characterize
# The served run must outlast the polls below: a -learn-tests 20 flow ends
# in about 150 ms on 2 vCPUs, often before /healthz is first asked, so the
# live run learns from 3000 tests (about 0.9 s) and is compared with the
# same flow run without -listen.
"$SMOKE_DIR/characterize" -learn-tests 3000 -parallel 1 \
	-trace "$SMOKE_DIR/plong.jsonl" > /dev/null
"$SMOKE_DIR/characterize" -learn-tests 3000 -parallel 4 -listen 127.0.0.1:0 \
	-trace "$SMOKE_DIR/plisten.jsonl" > /dev/null 2> "$SMOKE_DIR/obs.stderr" &
OBS_PID=$!
ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR=$(sed -n 's#^obs: serving http://\([^/]*\)/.*#\1#p' "$SMOKE_DIR/obs.stderr")
	[ -n "$ADDR" ] && break
	kill -0 "$OBS_PID" 2> /dev/null || break
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$ADDR" ]; then
	echo "FAIL: characterize -listen never announced its address" >&2
	cat "$SMOKE_DIR/obs.stderr" >&2
	exit 1
fi
curl -sf "http://$ADDR/healthz" > /dev/null || {
	echo "FAIL: /healthz not answering on $ADDR" >&2
	exit 1
}
# The run lasts about a second, so /progress is read on the first pass
# that reaches the server and /metrics until it shows a search.
SCRAPED=""
PROGRESS=""
while kill -0 "$OBS_PID" 2> /dev/null; do
	if [ -z "$PROGRESS" ] && curl -sf "http://$ADDR/progress" > "$SMOKE_DIR/progress.json" 2> /dev/null; then
		PROGRESS=yes
	fi
	if [ -z "$SCRAPED" ] && curl -sf "http://$ADDR/metrics" > "$SMOKE_DIR/scrape.prom" 2> /dev/null \
		&& grep -Eq '^repro_search_total\{[^}]*\} [1-9]' "$SMOKE_DIR/scrape.prom"; then
		SCRAPED=yes
	fi
	if [ -n "$SCRAPED" ] && [ -n "$PROGRESS" ]; then
		break
	fi
	sleep 0.1
done
if [ -z "$SCRAPED" ]; then
	echo "FAIL: never scraped a nonzero repro_search_total from the live /metrics" >&2
	exit 1
fi
if [ -z "$PROGRESS" ]; then
	echo "FAIL: never read the live /progress" >&2
	exit 1
fi
sed -n '/"non_deterministic"/,/}/p' "$SMOKE_DIR/progress.json" | grep -q '"pool_runs"' || {
	echo "FAIL: live /progress non_deterministic section has no pool_runs" >&2
	cat "$SMOKE_DIR/progress.json" >&2
	exit 1
}
wait "$OBS_PID" || {
	echo "FAIL: characterize -listen exited nonzero" >&2
	cat "$SMOKE_DIR/obs.stderr" >&2
	exit 1
}
cmp "$SMOKE_DIR/plisten.jsonl" "$SMOKE_DIR/plong.jsonl" || {
	echo "FAIL: -listen changed the telemetry trace bytes" >&2
	exit 1
}
echo "live /metrics and /progress scraped on $ADDR; trace bit-identical with -listen on"

echo "== tracestat =="
go run ./cmd/tracestat -chrome "$SMOKE_DIR/p1.chrome.json" "$SMOKE_DIR/p1.jsonl" > "$SMOKE_DIR/tracestat.txt"
grep -q "critical path" "$SMOKE_DIR/tracestat.txt" || {
	echo "FAIL: tracestat produced no critical-path summary" >&2
	cat "$SMOKE_DIR/tracestat.txt" >&2
	exit 1
}
grep -q '"traceEvents"' "$SMOKE_DIR/p1.chrome.json" || {
	echo "FAIL: tracestat -chrome wrote no trace-event JSON" >&2
	exit 1
}
echo "tracestat rollups and Chrome export OK"

echo "== tracestat diff regression gate =="
# Self-check both directions of the gate. Identical workloads (the -parallel
# 1 and 4 smoke traces are byte-identical) must diff clean; a deliberately
# fatter learning phase (26 tests vs 20 is +30% work, past the 20% gate with
# the noise floor lowered to cover the small smoke run) must exit nonzero.
go run ./cmd/tracestat diff -fail-over 20 "$SMOKE_DIR/p1.jsonl" "$SMOKE_DIR/p4.jsonl" || {
	echo "FAIL: tracestat diff flagged a regression between identical traces" >&2
	exit 1
}
go run ./cmd/characterize -learn-tests 26 -parallel 4 \
	-trace "$SMOKE_DIR/p26.jsonl" > /dev/null
if go run ./cmd/tracestat diff -fail-over 20 -min-measurements 10 \
	"$SMOKE_DIR/p1.jsonl" "$SMOKE_DIR/p26.jsonl" > "$SMOKE_DIR/diff26.txt"; then
	echo "FAIL: tracestat diff missed an injected +30% learning-phase regression" >&2
	cat "$SMOKE_DIR/diff26.txt" >&2
	exit 1
fi
grep -q "REGRESSED" "$SMOKE_DIR/diff26.txt" || {
	echo "FAIL: tracestat diff exited nonzero but reported no REGRESSED row" >&2
	cat "$SMOKE_DIR/diff26.txt" >&2
	exit 1
}
echo "tracestat diff: identical traces clean, injected regression caught"

echo "== run ledger smoke =="
# The content-addressed run ledger: the same workload recorded at three
# worker counts must collide into ONE record (the identity contract), with
# one attempt sidecar line per execution; then `tracestat regress` over the
# ledger must stay clean across identical-trace records and catch the same
# injected +30% learning-phase regression the file-level diff gate catches.
LEDGER_DIR="$SMOKE_DIR/ledger"
for P in 1 2 8; do
	"$SMOKE_DIR/characterize" -learn-tests 20 -parallel "$P" \
		-run-dir "$LEDGER_DIR" > /dev/null 2>> "$SMOKE_DIR/ledger.stderr"
done
RUN_COUNT=$(find "$LEDGER_DIR" -maxdepth 1 -name '*.run' | wc -l)
if [ "$RUN_COUNT" -ne 1 ]; then
	echo "FAIL: 3 identical runs at -parallel 1/2/8 left $RUN_COUNT ledger records, want 1" >&2
	cat "$SMOKE_DIR/ledger.stderr" >&2
	exit 1
fi
ATTEMPTS=$(cat "$LEDGER_DIR"/*.attempts.jsonl | wc -l)
if [ "$ATTEMPTS" -ne 3 ]; then
	echo "FAIL: expected 3 attempt sidecar lines, found $ATTEMPTS" >&2
	exit 1
fi
go run ./cmd/tracestat ledger "$LEDGER_DIR" > "$SMOKE_DIR/ledger.txt"
grep -q "characterize" "$SMOKE_DIR/ledger.txt" || {
	echo "FAIL: tracestat ledger does not list the recorded run" >&2
	cat "$SMOKE_DIR/ledger.txt" >&2
	exit 1
}
# A changed identity flag (-weights output) mints a second record whose
# trace is identical, so the sliding-window regress gate must stay clean.
"$SMOKE_DIR/characterize" -learn-tests 20 -parallel 4 -weights "$SMOKE_DIR/w.json" \
	-run-dir "$LEDGER_DIR" > /dev/null 2>> "$SMOKE_DIR/ledger.stderr"
go run ./cmd/tracestat regress -fail-over 20 -min-measurements 10 "$LEDGER_DIR" || {
	echo "FAIL: tracestat regress flagged identical-trace ledger records" >&2
	exit 1
}
# The injected +30% learning phase must trip the gate over the ledger.
"$SMOKE_DIR/characterize" -learn-tests 26 -parallel 4 \
	-run-dir "$LEDGER_DIR" > /dev/null 2>> "$SMOKE_DIR/ledger.stderr"
if go run ./cmd/tracestat regress -fail-over 20 -min-measurements 10 \
	"$LEDGER_DIR" > "$SMOKE_DIR/regress.txt"; then
	echo "FAIL: tracestat regress missed the injected +30% regression in the ledger" >&2
	cat "$SMOKE_DIR/regress.txt" >&2
	exit 1
fi
grep -q "REGRESSED" "$SMOKE_DIR/regress.txt" || {
	echo "FAIL: tracestat regress exited nonzero but reported no REGRESSED row" >&2
	cat "$SMOKE_DIR/regress.txt" >&2
	exit 1
}
go run ./cmd/tracestat regress -min-measurements 10 -json "$LEDGER_DIR" > "$SMOKE_DIR/regress.json"
grep -q '"labels"' "$SMOKE_DIR/regress.json" || {
	echo "FAIL: tracestat regress -json produced no labels array" >&2
	cat "$SMOKE_DIR/regress.json" >&2
	exit 1
}
echo "run ledger: 3 executions -> 1 record ($ATTEMPTS attempts); regress clean on identical traces, +30% injected regression caught"
# shmoo opens no measurement store, so -cache-dir changes nothing it
# computes: the runs with and without it are one record.
go build -o "$SMOKE_DIR/shmoo" ./cmd/shmoo
WARMTH_DIR="$SMOKE_DIR/warmth-ledger"
"$SMOKE_DIR/shmoo" -tests 5 -run-dir "$WARMTH_DIR" > /dev/null 2>> "$SMOKE_DIR/ledger.stderr"
"$SMOKE_DIR/shmoo" -tests 5 -cache-dir "$SMOKE_DIR/warmth-cache" \
	-run-dir "$WARMTH_DIR" > /dev/null 2>> "$SMOKE_DIR/ledger.stderr"
RUN_COUNT=$(find "$WARMTH_DIR" -maxdepth 1 -name '*.run' | wc -l)
if [ "$RUN_COUNT" -ne 1 ]; then
	echo "FAIL: shmoo with and without an unused -cache-dir left $RUN_COUNT ledger records, want 1" >&2
	exit 1
fi
echo "run ledger: a -cache-dir the flow ignores leaves the run ID as it is"

echo "== crash bundle smoke =="
# An injected worker-pool panic must kill the run (nonzero exit) AND leave a
# complete post-mortem bundle under -crash-dir. The run also has a ledger:
# the failed run must leave nothing in TMPDIR and no ledger record.
CRASH_DIR="$SMOKE_DIR/crash"
CRASH_TMP="$SMOKE_DIR/crash-tmp"
CRASH_RUNS="$SMOKE_DIR/crash-runs"
mkdir -p "$CRASH_TMP"
if TMPDIR="$CRASH_TMP" "$SMOKE_DIR/characterize" -learn-tests 20 -crash-dir "$CRASH_DIR" \
	-run-dir "$CRASH_RUNS" -inject-fault task-panic > /dev/null 2> "$SMOKE_DIR/crash.stderr"; then
	echo "FAIL: characterize -inject-fault task-panic exited zero" >&2
	exit 1
fi
if [ -n "$(ls -A "$CRASH_TMP")" ]; then
	echo "FAIL: the crashed run left files in TMPDIR:" >&2
	ls -A "$CRASH_TMP" >&2
	exit 1
fi
if [ -n "$(find "$CRASH_RUNS" -maxdepth 1 -name '*.run')" ]; then
	echo "FAIL: the crashed run wrote a ledger record in $CRASH_RUNS" >&2
	exit 1
fi
BUNDLE=$(find "$CRASH_DIR" -maxdepth 1 -type d -name 'panic-*' | head -1)
if [ -z "$BUNDLE" ]; then
	echo "FAIL: no panic-* crash bundle in $CRASH_DIR" >&2
	cat "$SMOKE_DIR/crash.stderr" >&2
	exit 1
fi
for f in meta.json flags.json stacks.txt flight.json metrics.json report.txt; do
	[ -s "$BUNDLE/$f" ] || {
		echo "FAIL: crash bundle missing or empty $f" >&2
		ls -la "$BUNDLE" >&2
		exit 1
	}
done
grep -q '"reason": "panic"' "$BUNDLE/meta.json" || {
	echo "FAIL: meta.json does not record the panic reason" >&2
	cat "$BUNDLE/meta.json" >&2
	exit 1
}
grep -q 'injected fault' "$BUNDLE/meta.json" || {
	echo "FAIL: meta.json does not carry the panic cause" >&2
	exit 1
}
grep -q 'goroutine' "$BUNDLE/stacks.txt" || {
	echo "FAIL: stacks.txt has no goroutine dump" >&2
	exit 1
}
grep -q 'non_deterministic' "$BUNDLE/flight.json" || {
	echo "FAIL: flight.json is not quarantined under non_deterministic" >&2
	exit 1
}
echo "crash bundle complete at $BUNDLE; TMPDIR empty, no ledger record"
# The fault arms in every run, also one that requests no telemetry output.
if "$SMOKE_DIR/characterize" -learn-only -learn-tests 12 -inject-fault error > /dev/null 2>&1; then
	echo "FAIL: characterize -inject-fault error without telemetry output exited zero" >&2
	exit 1
fi
echo "injected error fails a run without telemetry output"
# Two file flags that name one file fail before any work, with exit 2.
CODE=0
"$SMOKE_DIR/characterize" -learn-only -learn-tests 12 -trace "$SMOKE_DIR/same" \
	-metrics "$SMOKE_DIR/same" > /dev/null 2> "$SMOKE_DIR/same.stderr" || CODE=$?
if [ "$CODE" -ne 2 ]; then
	echo "FAIL: characterize -trace X -metrics X exited $CODE, want 2" >&2
	cat "$SMOKE_DIR/same.stderr" >&2
	exit 1
fi
echo "-trace and -metrics on one file rejected with exit 2"

echo "== job service smoke =="
# charserved end to end: boot on :0 with a persistent queue, submit a learn
# job over HTTP and watch it finalize into the SAME content-addressed
# ledger record the equivalent CLI invocation mints; DELETE a queued job
# (must land in canceled); then SIGTERM must shut the service down cleanly
# (exit 0). The race-enabled service load test — 200+ mixed-priority jobs
# with random cancellations, exact dispatch order, budget high-water and
# goroutine-leak checks — already ran in the `go test -race ./...` suite
# above.
go build -o "$SMOKE_DIR/charserved" ./cmd/charserved
SRV_Q="$SMOKE_DIR/jobq"
SRV_RUNS="$SMOKE_DIR/jobruns"
"$SMOKE_DIR/charserved" -listen 127.0.0.1:0 -queue-dir "$SRV_Q" \
	-run-dir "$SRV_RUNS" -workers 4 2> "$SMOKE_DIR/serve.stderr" &
SRV_PID=$!
SRV_ADDR=""
i=0
while [ $i -lt 100 ]; do
	SRV_ADDR=$(sed -n 's#^charserved: serving http://\([^/]*\)/.*#\1#p' "$SMOKE_DIR/serve.stderr")
	[ -n "$SRV_ADDR" ] && break
	kill -0 "$SRV_PID" 2> /dev/null || break
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$SRV_ADDR" ]; then
	echo "FAIL: charserved never announced its address" >&2
	cat "$SMOKE_DIR/serve.stderr" >&2
	exit 1
fi
JOB=$(curl -sf -X POST "http://$SRV_ADDR/jobs" \
	-d '{"flow":"learn","seed":1,"args":{"learn-tests":"20"}}')
JOB_ID=$(printf '%s' "$JOB" | grep -o '"id": "j[0-9]*"' | head -1 | grep -o 'j[0-9]*')
if [ -z "$JOB_ID" ]; then
	echo "FAIL: POST /jobs returned no job ID: $JOB" >&2
	exit 1
fi
STATE=""
BODY=""
i=0
while [ $i -lt 300 ]; do
	BODY=$(curl -sf "http://$SRV_ADDR/jobs/$JOB_ID")
	STATE=$(printf '%s' "$BODY" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -1)
	[ "$STATE" = "done" ] && break
	case "$STATE" in failed | canceled) break ;; esac
	sleep 0.1
	i=$((i + 1))
done
if [ "$STATE" != "done" ]; then
	echo "FAIL: learn job $JOB_ID ended in state '$STATE': $BODY" >&2
	exit 1
fi
RUN_ID=$(printf '%s' "$BODY" | grep -o '"run_id": "[0-9a-f]*"' | grep -o '[0-9a-f]\{32\}')
if [ -z "$RUN_ID" ] || [ ! -f "$SRV_RUNS/$RUN_ID.run" ]; then
	echo "FAIL: job $JOB_ID finalized no ledger record (run_id '$RUN_ID')" >&2
	exit 1
fi
# Identity: the CLI-equivalent run in a fresh ledger must mint the same ID.
"$SMOKE_DIR/characterize" -learn-only -learn-tests 20 \
	-run-dir "$SMOKE_DIR/jobcli" > /dev/null 2>&1
if [ ! -f "$SMOKE_DIR/jobcli/$RUN_ID.run" ]; then
	echo "FAIL: CLI-equivalent run did not mint job run ID $RUN_ID:" >&2
	ls "$SMOKE_DIR/jobcli" >&2
	exit 1
fi
# SSE: a progress stream on the finished job delivers its done frame.
curl -sf --max-time 5 "http://$SRV_ADDR/jobs/$JOB_ID/progress?sse=1" \
	> "$SMOKE_DIR/job.sse" || true
grep -q "event: progress" "$SMOKE_DIR/job.sse" || {
	echo "FAIL: /jobs/$JOB_ID/progress?sse=1 streamed no progress frame" >&2
	exit 1
}
# A flag value the run would reject fails at submission with 400.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$SRV_ADDR/jobs" \
	-d '{"flow":"learn","args":{"param":"bogus"}}')
if [ "$CODE" != "400" ]; then
	echo "FAIL: POST /jobs with param bogus answered $CODE, want 400" >&2
	exit 1
fi
# Cancellation: a job queued behind a budget-filling one DELETEs to canceled.
curl -sf -X POST "http://$SRV_ADDR/jobs" \
	-d '{"flow":"optimize","seed":2,"args":{"learn-tests":"60"},"parallel":4}' > /dev/null
VICTIM=$(curl -sf -X POST "http://$SRV_ADDR/jobs" \
	-d '{"flow":"learn","seed":3,"parallel":4}' |
	grep -o '"id": "j[0-9]*"' | head -1 | grep -o 'j[0-9]*')
CANCELED=$(curl -sf -X DELETE "http://$SRV_ADDR/jobs/$VICTIM")
printf '%s' "$CANCELED" | grep -q '"state": "canceled"' || {
	echo "FAIL: DELETE of queued job $VICTIM did not cancel it: $CANCELED" >&2
	exit 1
}
kill -TERM "$SRV_PID"
wait "$SRV_PID" || {
	echo "FAIL: charserved exited nonzero on SIGTERM" >&2
	cat "$SMOKE_DIR/serve.stderr" >&2
	exit 1
}
grep -q "shutdown complete" "$SMOKE_DIR/serve.stderr" || {
	echo "FAIL: charserved did not log a clean shutdown" >&2
	cat "$SMOKE_DIR/serve.stderr" >&2
	exit 1
}
echo "job service: learn job = CLI run $RUN_ID; queued job canceled; clean SIGTERM shutdown"

echo "== fleet determinism under -race =="
# Bit-identical results, merged stats and trace bytes between a nil fleet
# (the serial fleet of one) and multi-worker fleets, with the race detector
# watching the persistent workers and the streamed in-order deliveries.
go test -race -count=1 -run "$RACE_PARALLEL" ./internal/parallel/
go test -race -count=1 -run "$RACE_CORE" ./internal/core/
go test -race -count=1 -run "$RACE_SHMOO" ./internal/shmoo/
echo "fleet determinism suite race-clean"

echo "== wall-clock benchmark gates (medians of 5) =="
# Five -benchtime 1x samples of the lot benchmarks the two wall-clock gates
# read, plus fig. 5, fig. 8 and Table 1 on fleets of 1 and 2 workers;
# medians are printed, no file is written. The counter gates on the same
# workloads are Go tests and ran above.
#   - speedup: streamed workers=8 cache=off must screen >= 2x the dies/sec
#     of the frozen pre-streaming per-die loop (BenchmarkLotScreenPerDieLoop);
#   - scaling: on a host with >= 2 CPUs, workers=2 cache=off must screen
#     >= 1.4x the dies/sec of workers=1 cache=off. Below 2 CPUs it is
#     printed and skipped.
# fig. 5's, fig. 8's and Table 1's workers=2 over workers=1 ratios are
# recorded with the CPU count, not gated, and so are Table 1's median bytes
# allocated per run at each worker count (-benchmem; TestTable1AllocatedBytes
# gates one run on a fleet of one), the medians of a fig. 8 task's two
# kernels (pattern execution in ns/vector, the row strobes in ns/strobe), of
# Table 1's memo key (the test fingerprint, in ns/vector) and of one strobe
# of each parameter (in ns/strobe), five 200 ms samples each.
NCPU=$(nproc)
SAMPLES=$(go test -run '^$' -benchtime 1x -count 5 -benchmem -timeout 60m -bench \
	'^BenchmarkLotScreenPerDieLoop$|^BenchmarkLotScreenStream$/^workers=[128]$/^cache=off$|^BenchmarkFigure5OptimizationParallel$/^workers=[12]$|^BenchmarkFigure8ShmooParallel$/^workers=[12]$|^BenchmarkTable1FullComparison$/^workers=[12]$' .)
KERNELS=$(go test -run '^$' -benchtime 200ms -count 5 -bench '^BenchmarkDeviceProfile$|^BenchmarkShmooTaskStrobes$|^BenchmarkSequenceFingerprint$|^BenchmarkMeasurePass$' .)
printf '%s\n%s\n' "$SAMPLES" "$KERNELS" | awk -v nproc="$NCPU" '
	# median of the samples of benchmark b.
	function median(b,    i, j, k, t, v) {
		for (i = 1; i <= n[b]; i++) v[i] = ns[b, i] + 0
		for (i = 2; i <= n[b]; i++)
			for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
		k = int((n[b] + 1) / 2)
		return (n[b] % 2) ? v[k] : (v[k] + v[k + 1]) / 2
	}
	BEGIN {
		unit["BenchmarkDeviceProfile"] = "ns/vector"
		unit["BenchmarkShmooTaskStrobes"] = "ns/strobe"
		unit["BenchmarkSequenceFingerprint"] = "ns/vector"
		unit["BenchmarkMeasurePass/param=tdq"] = "ns/strobe"
		unit["BenchmarkMeasurePass/param=fmax"] = "ns/strobe"
		unit["BenchmarkMeasurePass/param=vddmin"] = "ns/strobe"
	}
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		u = (name in unit) ? unit[name] : "ns/op"
		for (i = 3; i <= NF; i++) {
			if ($i == u) {
				if (!(name in n)) order[++nb] = name
				ns[name, ++n[name]] = $(i - 1)
			}
			if ($i == "B/op" && name ~ /^BenchmarkTable1FullComparison\//)
				ns[name " B/op", ++n[name " B/op"]] = $(i - 1)
		}
	}
	END {
		for (b = 1; b <= nb; b++) {
			med[order[b]] = median(order[b])
			if (!(order[b] in unit))
				printf "%-48s %d samples, median %9.1f ms/op\n", order[b], n[order[b]], med[order[b]] / 1e6
		}
		perdie = med["BenchmarkLotScreenPerDieLoop"]
		w1 = med["BenchmarkLotScreenStream/workers=1/cache=off"]
		w2 = med["BenchmarkLotScreenStream/workers=2/cache=off"]
		w8 = med["BenchmarkLotScreenStream/workers=8/cache=off"]
		f1 = med["BenchmarkFigure5OptimizationParallel/workers=1"]
		f2 = med["BenchmarkFigure5OptimizationParallel/workers=2"]
		s1 = med["BenchmarkFigure8ShmooParallel/workers=1"]
		s2 = med["BenchmarkFigure8ShmooParallel/workers=2"]
		t1 = med["BenchmarkTable1FullComparison/workers=1"]
		t2 = med["BenchmarkTable1FullComparison/workers=2"]
		a1 = median("BenchmarkTable1FullComparison/workers=1 B/op")
		a2 = median("BenchmarkTable1FullComparison/workers=2 B/op")
		kv = med["BenchmarkDeviceProfile"]
		ks = med["BenchmarkShmooTaskStrobes"]
		kf = med["BenchmarkSequenceFingerprint"]
		mt = med["BenchmarkMeasurePass/param=tdq"]
		mf = med["BenchmarkMeasurePass/param=fmax"]
		mv = med["BenchmarkMeasurePass/param=vddmin"]
		if (!perdie || !w1 || !w2 || !w8 || !f1 || !f2 || !s1 || !s2 || !t1 || !t2 || !a1 || !a2 || !kv || !ks || !kf || !mt || !mf || !mv) {
			print "FAIL: benchmark output is missing lot, fig. 5, fig. 8, Table 1 time or allocation, kernel or single-strobe samples" > "/dev/stderr"
			exit 1
		}
		fail = 0
		printf "lot gate: streamed workers=8 screens %.2fx the dies/sec of the per-die loop (want >= 2x)\n", perdie / w8
		if (perdie < 2 * w8) {
			print "FAIL: streamed workers=8 lot is under 2x the per-die loop" > "/dev/stderr"
			fail = 1
		}
		if (nproc >= 2) {
			printf "lot scaling gate: workers=2 / workers=1 = %.2fx, nproc %d (want >= 1.4x)\n", w1 / w2, nproc
			if (w1 < 1.4 * w2) {
				print "FAIL: 2-worker lot is under 1.4x the 1-worker one" > "/dev/stderr"
				fail = 1
			}
		} else {
			printf "lot scaling: workers=2 / workers=1 = %.2fx, nproc %d (gate skipped below 2 CPUs)\n", w1 / w2, nproc
		}
		printf "fig. 5 scaling (recorded, not gated): workers=2 / workers=1 = %.2fx, nproc %d\n", f1 / f2, nproc
		printf "fig. 8 scaling (recorded, not gated): workers=2 / workers=1 = %.2fx, nproc %d\n", s1 / s2, nproc
		printf "fig. 8 task kernels (recorded, not gated): pattern execution %.1f ns/vector (%d samples), row strobes %.1f ns/strobe (%d samples)\n", kv, n["BenchmarkDeviceProfile"], ks, n["BenchmarkShmooTaskStrobes"]
		printf "Table 1 scaling (recorded, not gated): workers=2 / workers=1 = %.2fx, nproc %d\n", t1 / t2, nproc
		printf "Table 1 allocation (recorded, not gated): %.1f MB/op at workers=1, %.1f at workers=2\n", a1 / 1048576, a2 / 1048576
		printf "Table 1 memo key (recorded, not gated): %.1f ns/vector (%d samples)\n", kf, n["BenchmarkSequenceFingerprint"]
		printf "single strobe (recorded, not gated): T_DQ %.1f, Fmax %.1f, Vddmin %.1f ns/strobe\n", mt, mf, mv
		exit fail
	}
'
echo "wall-clock benchmark gates hold"
