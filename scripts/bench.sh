#!/bin/sh
# Emulator benchmark harness: runs the BenchmarkCPURun* emulated-MIPS
# benchmarks, the BenchmarkNewProcess process-build rows (one and two
# views of the Fig. 11 matmul task, bytes and allocations per process),
# the BenchmarkFig11Point row (one point of the repo benchmark's Fig. 11
# sweep per op, both directions: time, bytes and allocations per point),
# the BenchmarkService*/BenchmarkRewriteBatch service suite, the
# coverage-guided campaign throughput benchmark (whole fuzzing execs/s), the
# store hit-path benchmark (verified memory-store hits), the BenchmarkRewrite cold-rewrite rows (one SPEC-shaped image
# under each of the 16 rewrite-cold configs), and the BenchmarkResolve
# rewriter-config rows (runtime-rewrite fault rate and per-task p50/p99
# with the indirect-target resolver off vs on), and distills the results
# into BENCH_emu.json (per benchmark: ns/op, emulated MIPS, ns per retired
# instruction, bytes/op, allocs/op, MB/s, batch items/s,
# faults/avoided/crashed per op, p50/p99 kcycles; the mean cold rewrite
# over the 16 configs), plus a
# "matrix" block distilled from chimera-eval: per rewriter config, the
# pass/degraded/reject split and mean size/cycle overheads over the
# adversarial corpus. Run from anywhere; writes to the repo root.
#
#   scripts/bench.sh                # default -benchtime
#   BENCHTIME=5s scripts/bench.sh   # longer runs for stable numbers
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== go test -bench CPURun (internal/emu, -benchtime $BENCHTIME)"
go test -run=- -bench='BenchmarkCPURun' -benchmem -benchtime "$BENCHTIME" \
    ./internal/emu/ | tee "$RAW"

echo "== go test -bench NewProcess (internal/kernel, -benchtime $BENCHTIME)"
go test -run=- -bench='BenchmarkNewProcess' -benchmem -benchtime "$BENCHTIME" \
    ./internal/kernel/ | tee -a "$RAW"

# median_rows keeps, per benchmark name, the row with the median ns/op
# among the -count runs in the given raw `go test -bench` output.
median_rows() {
    awk '/^Benchmark/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") {
            if (!($1 in n)) order[++names] = $1
            k = ++n[$1]; v[$1, k] = $i + 0; line[$1, k] = $0
        }
    }
    END {
        for (m = 1; m <= names; m++) {
            b = order[m]
            for (i = 2; i <= n[b]; i++)
                for (j = i; j > 1 && v[b, j-1] > v[b, j]; j--) {
                    t = v[b, j]; v[b, j] = v[b, j-1]; v[b, j-1] = t
                    t = line[b, j]; line[b, j] = line[b, j-1]; line[b, j-1] = t
                }
            print line[b, int((n[b] + 1) / 2)]
        }
    }' "$1"
}

# One campaign iteration is 2000 whole guest executions in a few ms, so a
# single iteration is one noisy sample (1x samples spread ±30%). Run it for
# the steady-state -benchtime, five times, and keep the median row.
echo "== go test -bench CampaignExecs (internal/fuzzsvc, campaign throughput, median of 5)"
CAMPAIGN_RAW="$(mktemp)"
go test -run=- -bench='BenchmarkCampaignExecs' -benchtime "$BENCHTIME" -count 5 \
    ./internal/fuzzsvc/ | tee "$CAMPAIGN_RAW"
median_rows "$CAMPAIGN_RAW" >> "$RAW"
rm -f "$CAMPAIGN_RAW"

# A Fig. 11 point schedules 96 short-lived processes; its time per op
# moves with the host's load, so it too is the median of five.
echo "== go test -bench Fig11Point (internal/bench, one Fig. 11 point per op, median of 5)"
FIG11_RAW="$(mktemp)"
go test -run=- -bench='BenchmarkFig11Point' -benchmem -benchtime "$BENCHTIME" -count 5 \
    ./internal/bench/ | tee "$FIG11_RAW"
median_rows "$FIG11_RAW" >> "$RAW"
rm -f "$FIG11_RAW"

# The service rows likewise: at 1x the "warm" BenchmarkServiceRewrite row
# would time one cold miss. Steady-state -benchtime, median of five.
# BenchmarkServiceHTTPWarm is the served hit at the repo benchmark's
# rewrite-warm image sizes (64–512 KiB of code).
echo "== go test -bench Service|RewriteBatch (internal/service, median of 5)"
SERVICE_RAW="$(mktemp)"
go test -run=- -bench='BenchmarkService|BenchmarkRewriteBatch' -benchmem -benchtime "$BENCHTIME" -count 5 \
    ./internal/service/ | tee "$SERVICE_RAW"
median_rows "$SERVICE_RAW" >> "$RAW"
rm -f "$SERVICE_RAW"

echo "== go test -bench store hit path (internal/store, -benchtime $BENCHTIME)"
go test -run=- -bench='BenchmarkMemoryHitParallel' -benchmem \
    -benchtime "$BENCHTIME" ./internal/store/ | tee -a "$RAW"

# One cold rewrite of a fixed image per config: steady-state -benchtime,
# median of five, with bytes and allocations per rewrite.
echo "== go test -bench Rewrite (internal/rewriters, 16 cold configs, median of 5)"
REWRITE_RAW="$(mktemp)"
go test -run=- -bench='BenchmarkRewrite' -benchmem -benchtime "$BENCHTIME" -count 5 \
    ./internal/rewriters/ | tee "$REWRITE_RAW"
median_rows "$REWRITE_RAW" >> "$RAW"
rm -f "$REWRITE_RAW"

# The resolver rows are simulated-cycle metrics (fault rate, per-task
# p50/p99), deterministic per pass — one iteration is the measurement.
echo "== go test -bench Resolve (internal/bench, fault-rate/p99 per rewriter config)"
go test -run=- -bench='BenchmarkResolve' -benchtime 1x \
    ./internal/bench/ | tee -a "$RAW"

# Distill `go test -bench` lines into JSON. Lines look like:
#   BenchmarkCPURunFib/blocks-8  865  3062081 ns/op  148.6 Minst/s  6.730 ns/inst  7 B/op  0 allocs/op
# The BenchmarkCPURunProfiler rows also yield profiler_overhead_pct per
# tier: the guest profiler's ns/inst cost relative to the same tier's
# profiler-off hot loop (off/on on blocks, traces-off/traces-on on traces).
awk '
BEGIN { print "{"; print "  \"benchmarks\": ["; n = 0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    nsop = ""; mips = ""; nsinst = ""; bytes = ""; allocs = ""; mbs = ""; items = ""
    faults = ""; avoided = ""; crashed = ""; p50 = ""; p99 = ""; execs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")       nsop = $i
        if ($(i+1) == "Minst/s")     mips = $i
        if ($(i+1) == "ns/inst")     nsinst = $i
        if ($(i+1) == "B/op")        bytes = $i
        if ($(i+1) == "allocs/op")   allocs = $i
        if ($(i+1) == "MB/s")        mbs = $i
        if ($(i+1) == "items/s")     items = $i
        if ($(i+1) == "faults/op")   faults = $i
        if ($(i+1) == "avoided/op")  avoided = $i
        if ($(i+1) == "crashed/op")  crashed = $i
        if ($(i+1) == "p50-kcycles") p50 = $i
        if ($(i+1) == "p99-kcycles") p99 = $i
        if ($(i+1) == "execs/s")     execs = $i
    }
    if (nsop == "") next
    if (name == "BenchmarkCPURunProfiler/off" && nsinst != "") prof_off = nsinst
    if (name == "BenchmarkCPURunProfiler/on"  && nsinst != "") prof_on = nsinst
    if (name == "BenchmarkCPURunProfiler/traces-off" && nsinst != "") prof_toff = nsinst
    if (name == "BenchmarkCPURunProfiler/traces-on"  && nsinst != "") prof_ton = nsinst
    if (name == "BenchmarkCPURunInstrument/off"      && nsinst != "") ins_off = nsinst
    if (name == "BenchmarkCPURunInstrument/nilhooks" && nsinst != "") ins_nil = nsinst
    if (name == "BenchmarkCPURunInstrument/coverage" && nsinst != "") ins_cov = nsinst
    if (name == "BenchmarkCPURunInstrument/cmplog"   && nsinst != "") ins_cmp = nsinst
    if (name == "BenchmarkCampaignExecs" && execs != "") campaign_execs = execs
    if (name ~ /^BenchmarkRewrite\//) { rw_n++; rw_ns += nsop; rw_bytes += bytes; rw_allocs += allocs }
    if (name == "BenchmarkResolve/chbp-off" && faults != "") { roff_f = faults; roff_p99 = p99 }
    if (name == "BenchmarkResolve/chbp-on"  && faults != "") { ron_f = faults; ron_p99 = p99 }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, nsop
    if (mips != "")    printf ", \"emulated_mips\": %s", mips
    if (nsinst != "")  printf ", \"ns_per_inst\": %s", nsinst
    if (bytes != "")   printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "")  printf ", \"allocs_per_op\": %s", allocs
    if (mbs != "")     printf ", \"mb_per_s\": %s", mbs
    if (items != "")   printf ", \"items_per_s\": %s", items
    if (faults != "")  printf ", \"faults_per_op\": %s", faults
    if (avoided != "") printf ", \"avoided_per_op\": %s", avoided
    if (crashed != "") printf ", \"crashed_per_op\": %s", crashed
    if (p50 != "")     printf ", \"p50_kcycles\": %s", p50
    if (p99 != "")     printf ", \"p99_kcycles\": %s", p99
    if (execs != "")   printf ", \"execs_per_s\": %s", execs
    printf "}"
}
END {
    print "\n  ],"
    if (prof_off + 0 > 0 && prof_on != "" && prof_toff + 0 > 0 && prof_ton != "")
        printf "  \"profiler_overhead_pct\": {\"blocks\": %.2f, \"traces\": %.2f},\n",
            (prof_on - prof_off) / prof_off * 100, (prof_ton - prof_toff) / prof_toff * 100
    if (ins_off + 0 > 0 && ins_cov != "" && ins_cmp != "") {
        printf "  \"instrument\": {\"ns_per_inst_off\": %s, \"ns_per_inst_nilhooks\": %s", ins_off, ins_nil
        printf ", \"ns_per_inst_coverage\": %s, \"ns_per_inst_cmplog\": %s", ins_cov, ins_cmp
        printf ", \"nilhooks_overhead_pct\": %.2f", (ins_nil - ins_off) / ins_off * 100
        printf ", \"coverage_overhead_pct\": %.2f", (ins_cov - ins_off) / ins_off * 100
        printf ", \"cmplog_overhead_pct\": %.2f", (ins_cmp - ins_off) / ins_off * 100
        if (campaign_execs != "") printf ", \"campaign_execs_per_s\": %s", campaign_execs
        print "},"
    }
    if (rw_n > 0)
        printf "  \"rewrite\": {\"configs\": %d, \"mean_ms_per_op\": %.3f, \"mean_bytes_per_op\": %.0f, \"mean_allocs_per_op\": %.0f},\n",
            rw_n, rw_ns / rw_n / 1e6, rw_bytes / rw_n, rw_allocs / rw_n
    if (roff_f != "" && ron_f != "") {
        printf "  \"resolver\": {\"chbp_faults_per_op_off\": %s, \"chbp_faults_per_op_on\": %s", roff_f, ron_f
        if (ron_f + 0 > 0) printf ", \"fault_reduction_x\": %.1f", roff_f / ron_f
        else               printf ", \"fault_reduction_x\": \"inf\""
        printf ", \"chbp_p99_kcycles_off\": %s, \"chbp_p99_kcycles_on\": %s", roff_p99, ron_p99
        if (roff_p99 + 0 > 0)
            printf ", \"p99_reduction_pct\": %.2f", (roff_p99 - ron_p99) / roff_p99 * 100
        print "},"
    }
    print "  \"note\": \"profiler_overhead_pct = CPURunProfiler on-vs-off ns/inst delta per tier; rewrite = BenchmarkRewrite means over the 16 cold configs; resolver = BenchmarkResolve chbp off-vs-on fault-rate and p99 deltas; instrument = CPURunInstrument hook-mode ns/inst deltas plus CampaignExecs fuzzing throughput\""
    print "}"
}
' "$RAW" > BENCH_emu.json

# The robustness-matrix distillation: per rewriter config, the pass /
# degraded / reject split over the adversarial corpus plus mean size and
# simulated-cycle overheads. Deterministic (simulated cycles, wire bytes),
# so the block is comparable across runs and machines.
echo "== chimera-eval -summary (robustness matrix per-config distillation)"
MATRIX_SUMMARY="$(mktemp)"
go run ./cmd/chimera-eval -summary > "$MATRIX_SUMMARY"
{
    sed '$ d' BENCH_emu.json
    printf '  ,"matrix": '
    sed 's/^/  /;1s/^  //' "$MATRIX_SUMMARY"
    echo "}"
} > BENCH_emu.json.tmp
mv BENCH_emu.json.tmp BENCH_emu.json
rm -f "$MATRIX_SUMMARY"

echo "== wrote BENCH_emu.json"
cat BENCH_emu.json
