#!/bin/sh
# Pre-PR gate: formatting, vet, build (this module and benchmark/), the
# benchmark module's tests, the full test suite under the race detector,
# the chaos soak (once under -race, then 20 times without it), the
# warm-loop and process-reset alloc gates, the nil-hook instrumentation
# and guest profiler overhead gates, the coverage-guided campaign smoke,
# and short native-fuzz smokes over the differential oracles, the image
# and fault-table parsers, the dense disassembler's reference and the
# service's one-pass body decoder against encoding/json.
# Run from anywhere; it anchors itself at the repo root.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l . 2>/dev/null)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
# benchmark/ is its own module (it imports this one through a replace), so
# the commands above never compile it; build and test it offline as
# benchmark/run.sh does, so an API change it depends on fails here, not at
# benchmark time. Its TestSmoke runs every workload, traced and untraced.
echo "== benchmark module: go vet ./... && go build ./... && go test ./..."
(cd benchmark && export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local &&
    go vet ./... && go build ./... && go test ./...)
echo "== layering gate (dependencies point downward)"
# forbid PKG DEP: fail if PKG transitively imports DEP (non-test imports).
mod=$(go list -m)
layering_bad=0
forbid() {
    if go list -deps "./internal/$1" | grep -qx "$mod/internal/$2"; then
        echo "layering: internal/$1 depends on internal/$2" >&2
        layering_bad=1
    fi
}
forbid service bench
forbid emu telemetry
forbid rewriters kernel
forbid kernel telemetry
forbid store chaos
for up in service bench evalmatrix fuzz; do
    forbid rewriters "$up"
done
# stdlib_only PKG: fail if PKG imports anything outside the standard
# library. The instrumentation ABI and the chaos injector are leaves that
# every layer may import.
stdlib_only() {
    deps=$(go list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' "./internal/$1" |
        grep -vx "$mod/internal/$1" || true)
    if [ -n "$deps" ]; then
        echo "layering: internal/$1 imports non-standard packages:" $deps >&2
        layering_bad=1
    fi
}
stdlib_only instrument
stdlib_only chaos
[ "$layering_bad" = 0 ] || exit 1
echo "== metrics lint (chimera_[a-z_]+ naming + help text)"
go test -run 'TestMetricsLint|TestMetricNameValidation' -count=1 ./internal/service ./internal/telemetry
echo "== go test -race ./..."
go test -race ./...
echo "== chaos soak (fixed seed, -race: 1000 mixed requests)"
CHIMERA_CHAOS_SOAK=1 go test -race -run 'TestChaosSoak' -count=1 -timeout 300s ./internal/service
# The soak's exact fault accounting must hold on every run, not most: 20
# runs of the default 200-request soak without -race interleave differently
# from the one race run above.
echo "== chaos soak repeat (default 200 requests, 20 runs)"
go test -run 'TestChaosSoak' -count=20 -timeout 300s ./internal/service
echo "== resolver smoke (static recovery exact pins + >=5x runtime-rewrite fault reduction)"
go test -run 'TestResolverFaultReduction|TestResolverAvoidsRuntimeRewrites|TestDispatchFamilyRecovery' \
    -count=1 ./internal/bench ./internal/kernel ./internal/resolve
echo "== robustness matrix smoke (adversarial corpus x every rewriter config, baseline gate)"
go run ./cmd/chimera-eval -baseline internal/evalmatrix/testdata/matrix_baseline.json >/dev/null
echo "== bench smoke (1 iteration)"
go test -run=- -bench=. -benchtime=1x ./... >/dev/null
# BenchmarkProcessReset is the fuzzing loop's per-exec rewind (dirty-page
# Process.Reset plus a short guest run); TestResetRestoresOnlyDirtyPages,
# run by the suite above, pins that it restores only the dirtied pages.
echo "== alloc gate (warm CPURun* hot loops and ProcessReset must not allocate)"
ALLOC_RAW="$(mktemp)"
go test -run=- -bench='BenchmarkCPURun' -benchtime=1x -benchmem ./internal/emu/ | tee "$ALLOC_RAW"
go test -run=- -bench='BenchmarkProcessReset' -benchtime=1x -benchmem ./internal/kernel/ | tee -a "$ALLOC_RAW"
if ! grep -q '^BenchmarkProcessReset' "$ALLOC_RAW"; then
    echo "alloc gate: BenchmarkProcessReset did not run" >&2
    exit 1
fi
awk '/^Benchmark(CPURun|ProcessReset)/ {
    for (i = 2; i < NF; i++)
        if ($(i+1) == "allocs/op" && $i + 0 > 0) {
            printf "alloc gate: %s reports %s allocs/op, want 0\n", $1, $i > "/dev/stderr"
            bad = 1
        }
} END { exit bad }' "$ALLOC_RAW"
rm -f "$ALLOC_RAW"
# The nil-hook gate takes the min of several short runs (noise floors, not
# means) and bounds attached-but-idle instrumentation at 2% of the bare hot
# loop — the fuzzing service's idle cost when no observers are installed.
echo "== instrument nil-hook overhead gate (nilhooks within 2% of off, min of 5 runs)"
OVH_RAW="$(mktemp)"
go test -run=- -bench='BenchmarkCPURunInstrument/(off|nilhooks)' -benchtime=50x -count=5 \
    ./internal/emu/ | tee "$OVH_RAW"
awk '
/^BenchmarkCPURunInstrument\/off/      { for (i = 2; i < NF; i++) if ($(i+1) == "ns/inst" && (off == "" || $i + 0 < off)) off = $i + 0 }
/^BenchmarkCPURunInstrument\/nilhooks/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/inst" && (nil == "" || $i + 0 < nil)) nil = $i + 0 }
END {
    if (off == "" || nil == "") { print "overhead gate: missing ns/inst samples" > "/dev/stderr"; exit 1 }
    printf "nil-hook overhead: off %.3f ns/inst, nilhooks %.3f ns/inst (%+.2f%%)\n", off, nil, (nil - off) / off * 100
    if (nil > off * 1.02) { print "overhead gate: nil-hook ns/inst exceeds off by more than 2%" > "/dev/stderr"; exit 1 }
}' "$OVH_RAW"
rm -f "$OVH_RAW"
# The profiler gate bounds the guest profiler's cost at 15% of the same
# tier's bare hot loop. Each of five runs measures all four rows back to
# back, and the gate takes the median over runs of the per-run on/off
# ns/inst ratio: pairing rows measured seconds apart cancels the host drift
# that moves separately taken medians by more than the bound.
echo "== guest profiler overhead gate (on within 15% of off per tier, median of 5 paired runs)"
PROF_RAW="$(mktemp)"
for run in 1 2 3 4 5; do
    go test -run=- -bench='BenchmarkCPURunProfiler' -benchtime=300x ./internal/emu/ | tee -a "$PROF_RAW"
done
awk '
/^BenchmarkCPURunProfiler\// {
    name = $1; sub(/^BenchmarkCPURunProfiler\//, "", name); sub(/-[0-9]+$/, "", name)
    for (i = 2; i < NF; i++) if ($(i+1) == "ns/inst") v[name, ++n[name]] = $i + 0
}
END {
    split("off:on traces-off:traces-on", pairs, " ")
    for (p = 1; p <= 2; p++) {
        split(pairs[p], r, ":")
        k = n[r[1]]
        if (k == 0 || k != n[r[2]]) { print "profiler gate: missing ns/inst samples for " pairs[p] > "/dev/stderr"; bad = 1; continue }
        for (i = 1; i <= k; i++) q[i] = v[r[2], i] / v[r[1], i]
        for (i = 2; i <= k; i++) for (j = i; j > 1 && q[j-1] > q[j]; j--) { t = q[j]; q[j] = q[j-1]; q[j-1] = t }
        m = k % 2 ? q[(k+1)/2] : (q[k/2] + q[k/2+1]) / 2
        printf "profiler overhead: %s vs %s, median of %d paired runs %+.2f%%\n", r[2], r[1], k, (m - 1) * 100
        if (m > 1.15) { printf "profiler gate: %s exceeds %s by more than 15%%\n", r[2], r[1] > "/dev/stderr"; bad = 1 }
    }
    exit bad
}' "$PROF_RAW"
rm -f "$PROF_RAW"
echo "== fuzz campaign smoke (coverage-guided engine finds and minimizes the seeded bug)"
go run ./cmd/chimera-fuzz -campaign demo -campaign-execs 30000 -campaign-input 64 \
    -campaign-budget 200000 -campaign-expect-crash -campaign-o /dev/null
echo "== fuzz smoke (10s per target)"
go test -run=- -fuzz=FuzzDifferential -fuzztime=10s ./internal/fuzz >/dev/null
go test -run=- -fuzz=FuzzRewrite -fuzztime=10s ./internal/fuzz >/dev/null
go test -run=- -fuzz=FuzzObjLoad -fuzztime=10s ./internal/obj >/dev/null
go test -run=- -fuzz=FuzzUnmarshalTables -fuzztime=10s ./internal/chbp >/dev/null
go test -run=- -fuzz=FuzzDisassemble -fuzztime=10s ./internal/dis >/dev/null
go test -run=- -fuzz=FuzzDecodeBody -fuzztime=10s ./internal/service >/dev/null
echo "== ok"
