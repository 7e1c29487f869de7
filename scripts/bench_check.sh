#!/usr/bin/env bash
# Performance regression gates.
#
# Runs every gate below, prints each verdict, and exits 1 at the end if any
# gate failed (a failing gate never hides the verdicts of the later ones):
#
#   1. kernels      — fresh `kernels` medians within 2x of results/BENCH_kernels.json
#   2. telemetry    — span instrumentation costs < 3% on the kernels suite
#   3. replicas     — committed serve replica curve scales >= 2x, zero failures
#   4. streaming    — committed adapted server beats the frozen one post-shift
#   5. simd         — model_forward/threads=1 >= 1.8x faster than pre-SIMD (AVX2+FMA hosts)
#   6. b1_scaling   — batch=1 forward scales >= 1.4x from 1 to 4 threads (>= 4 cores)
#   7. memory       — serve peak bytes and allocs/request within 1.25x of baseline
#
# Committed baselines are never overwritten — refresh one deliberately
# (e.g. BENCH_OUT=results cargo bench -p lttf-bench --bench kernels) when a
# speedup lands.
#
#   scripts/bench_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH_DIR=$(mktemp -d)
OFF_DIR=$(mktemp -d)
trap 'rm -rf "$FRESH_DIR" "$OFF_DIR"' EXIT

# Extract "bench name -> median_ns" pairs from a JSON-lines bench file.
medians() {
    sed -n 's/.*"bench":"\([^"]*\)".*"median_ns":\([0-9]*\).*/\1 \2/p' "$1"
}

# Print a failure verdict; the calling gate then returns 1.
fail() {
    echo "FAIL: $*" >&2
    return 1
}

BASELINE=results/BENCH_kernels.json
FRESH="$FRESH_DIR/BENCH_kernels.json"

# Kernel regression gate: re-run the `kernels` suite and fail if any
# kernel got more than 2x slower than its committed median.
gate_kernels() {
    if [[ ! -f "$BASELINE" ]]; then
        echo "no committed baseline at $BASELINE; nothing to check" >&2
        return 0
    fi
    echo "==> cargo bench --bench kernels  (fresh run into $FRESH_DIR)"
    BENCH_OUT="$FRESH_DIR" cargo bench --offline -p lttf-bench --bench kernels >/dev/null \
        || fail "kernels bench run failed" || return 1
    [[ -f "$FRESH" ]] || fail "bench run produced no $FRESH" || return 1

    local bad=0 name base_med fresh_med
    while read -r name base_med; do
        fresh_med=$(medians "$FRESH" | awk -v n="$name" '$1 == n {print $2}')
        if [[ -z "$fresh_med" ]]; then
            echo "WARN  $name: present in baseline but missing from fresh run"
            continue
        fi
        # Regression when fresh > 2x committed median.
        if (( fresh_med > 2 * base_med )); then
            echo "FAIL  $name: fresh median ${fresh_med}ns > 2x baseline ${base_med}ns"
            bad=1
        else
            printf 'ok    %-28s baseline %10dns  fresh %10dns\n' "$name" "$base_med" "$fresh_med"
        fi
    done < <(medians "$BASELINE")
    (( bad == 0 )) || fail "kernel regression detected (>2x committed median)" || return 1
    echo "==> bench_check: all kernels within 2x of committed medians"
}

# Telemetry overhead gate: the span instrumentation must cost < 3% on the
# kernels suite. Re-run the same suite with telemetry compiled out
# (--no-default-features) and compare the sums of medians — summing across
# the suite damps per-bench timer noise.
gate_telemetry() {
    if [[ ! -f "$BASELINE" ]]; then
        echo "no committed baseline at $BASELINE; skipping telemetry gate" >&2
        return 0
    fi
    [[ -f "$FRESH" ]] || fail "no fresh kernels run to compare telemetry against" || return 1
    echo "==> cargo bench --bench kernels --no-default-features  (telemetry compiled out)"
    BENCH_OUT="$OFF_DIR" cargo bench --offline -p lttf-bench --bench kernels \
        --no-default-features >/dev/null \
        || fail "no-default-features kernels bench run failed" || return 1
    local off="$OFF_DIR/BENCH_kernels.json"
    [[ -f "$off" ]] || fail "no-default-features bench run produced no $off" || return 1

    local on_sum off_sum
    on_sum=$(medians "$FRESH" | awk '{s += $2} END {print s}')
    off_sum=$(medians "$off" | awk '{s += $2} END {print s}')
    echo "kernels suite sum of medians: telemetry on ${on_sum}ns, off ${off_sum}ns"
    awk -v on="$on_sum" -v off="$off_sum" 'BEGIN {
        pct = (on / off - 1) * 100;
        printf "telemetry overhead: %+.2f%%\n", pct;
        exit (on > off * 1.03) ? 1 : 0;
    }' || fail "telemetry overhead exceeds 3% on the kernels suite" || return 1
    echo "==> bench_check: telemetry overhead within 3%"
}

SERVE=results/BENCH_serve.json

# Serving-tier scaling gate: the committed replica curve (written by
# `lttf bench-serve`, see DESIGN.md §10) must contain open-loop entries
# for 1, 2, and 4 replicas, record zero hard failures, and show the
# 4-replica run completing at least 2x the 1-replica throughput. The
# curve is calibrated with a service-time floor, so this holds even on
# single-core CI hosts (the floor is recorded in each entry).
gate_replicas() {
    if [[ ! -f "$SERVE" ]]; then
        echo "no committed serve baseline at $SERVE; skipping scaling gate" >&2
        return 0
    fi
    echo "==> serve replica-scaling gate ($SERVE)"
    local r speedup
    for r in 1 2 4; do
        grep -q "\"bench\":\"open_loop_[a-z]*/replicas_$r\"" "$SERVE" \
            || fail "$SERVE missing open-loop entry for replicas_$r" || return 1
    done
    if grep -o '"failed":[0-9]*' "$SERVE" | grep -qv '"failed":0'; then
        fail "committed open-loop runs recorded hard failures" || return 1
    fi
    speedup=$(sed -n 's/.*"bench":"replica_speedup".*"speedup":\([0-9.]*\).*/\1/p' "$SERVE")
    [[ -n "$speedup" ]] || fail "$SERVE has no replica_speedup entry" || return 1
    awk -v s="$speedup" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }' \
        || fail "committed replica speedup ${speedup}x below the 2x gate" || return 1
    echo "==> bench_check: replica speedup ${speedup}x (gate >= 2x), zero failed requests"
}

# Streaming-session gate (online test-time adaptation): the committed
# regime-shift run must contain both the frozen and the adapted rows,
# record zero failed pushes (enforced by the replica gate's "failed":0
# check), and show the adapted server beating — or at worst matching —
# the frozen server's post-shift error.
gate_streaming() {
    if [[ ! -f "$SERVE" ]]; then
        echo "no committed serve baseline at $SERVE; skipping streaming gate" >&2
        return 0
    fi
    echo "==> serve streaming-adaptation gate ($SERVE)"
    local frozen_mse adapted_mse publishes
    frozen_mse=$(sed -n 's/.*"bench":"stream_frozen".*"post_shift_mse":\([0-9.eE+-]*\).*/\1/p' "$SERVE")
    adapted_mse=$(sed -n 's/.*"bench":"stream_adapted".*"post_shift_mse":\([0-9.eE+-]*\).*/\1/p' "$SERVE")
    [[ -n "$frozen_mse" && -n "$adapted_mse" ]] \
        || fail "$SERVE missing stream_frozen/stream_adapted rows" || return 1
    publishes=$(sed -n 's/.*"bench":"stream_adapted".*"publishes":\([0-9]*\).*/\1/p' "$SERVE")
    if [[ -z "$publishes" || "$publishes" -lt 1 ]]; then
        fail "committed stream_adapted run never published an adapted generation" || return 1
    fi
    awk -v f="$frozen_mse" -v a="$adapted_mse" 'BEGIN {
        printf "post-shift mse: frozen %.4f, adapted %.4f (%.2fx)\n", f, a, f / (a > 0 ? a : 1e-9);
        exit (a <= f) ? 0 : 1;
    }' || fail "adapted post-shift MSE ${adapted_mse} exceeds frozen ${frozen_mse}" || return 1
    echo "==> bench_check: adapted server beats the frozen server after the regime shift"
}

# Single-request latency gates (SIMD microkernels + intra-request
# parallelism). One fresh parallel_scaling run, compared against the
# *frozen* pre-SIMD medians in results/BENCH_parallel_scaling_pr6_baseline.json
# (that file is a historical snapshot — never regenerate it). Each gate is
# skipped (loudly) on hosts that cannot express it.
FROZEN=results/BENCH_parallel_scaling_pr6_baseline.json
PSCALE="$FRESH_DIR/BENCH_parallel_scaling.json"

run_parallel_scaling() {
    echo "==> cargo bench --bench parallel_scaling  (single-request latency gates)"
    BENCH_OUT="$FRESH_DIR" cargo bench --offline -p lttf-bench --bench parallel_scaling >/dev/null \
        || echo "FAIL: parallel_scaling bench run failed" >&2
}

# On AVX2+FMA hosts, model_forward/threads=1 must stay >= 1.8x faster
# than the pre-SIMD median.
gate_simd() {
    if [[ ! -f "$FROZEN" ]]; then
        echo "no frozen pre-SIMD baseline at $FROZEN; skipping the SIMD speedup gate" >&2
        return 0
    fi
    if ! { grep -m1 '^flags' /proc/cpuinfo 2>/dev/null | grep -qw avx2 \
        && grep -m1 '^flags' /proc/cpuinfo 2>/dev/null | grep -qw fma; }; then
        echo "host lacks AVX2+FMA; skipping the 1.8x SIMD speedup gate" >&2
        return 0
    fi
    [[ -f "$PSCALE" ]] || fail "bench run produced no $PSCALE" || return 1
    local base_fwd fresh_fwd
    base_fwd=$(medians "$FROZEN" | awk '$1 == "model_forward/threads=1" {print $2}')
    fresh_fwd=$(medians "$PSCALE" | awk '$1 == "model_forward/threads=1" {print $2}')
    [[ -n "$base_fwd" && -n "$fresh_fwd" ]] \
        || fail "model_forward/threads=1 missing from $FROZEN or fresh run" || return 1
    awk -v b="$base_fwd" -v f="$fresh_fwd" 'BEGIN {
        printf "model_forward/threads=1: pre-SIMD %dns, fresh %dns (%.2fx)\n", b, f, b / f;
        exit (b >= 1.8 * f) ? 0 : 1;
    }' || fail "model_forward median no longer >= 1.8x faster than the pre-SIMD baseline" \
        || return 1
    echo "==> bench_check: SIMD forward-pass speedup holds (>= 1.8x vs pre-SIMD median)"
}

# On hosts with >= 4 cores, the batch=1 row must actually scale:
# model_forward_b1 threads=4 must beat threads=1 by >= 1.4x.
gate_b1_scaling() {
    if [[ ! -f "$FROZEN" ]]; then
        echo "no frozen pre-SIMD baseline at $FROZEN; skipping the batch=1 scaling gate" >&2
        return 0
    fi
    local cores b1_t1 b1_t4
    cores=$(nproc 2>/dev/null || echo 1)
    if (( cores < 4 )); then
        echo "host has $cores core(s); skipping the 4-thread batch=1 scaling gate" >&2
        return 0
    fi
    [[ -f "$PSCALE" ]] || fail "bench run produced no $PSCALE" || return 1
    b1_t1=$(medians "$PSCALE" | awk '$1 == "model_forward_b1/threads=1" {print $2}')
    b1_t4=$(medians "$PSCALE" | awk '$1 == "model_forward_b1/threads=4" {print $2}')
    [[ -n "$b1_t1" && -n "$b1_t4" ]] \
        || fail "model_forward_b1 rows missing from fresh parallel_scaling run" || return 1
    awk -v t1="$b1_t1" -v t4="$b1_t4" 'BEGIN {
        printf "model_forward_b1: threads=1 %dns, threads=4 %dns (%.2fx)\n", t1, t4, t1 / t4;
        exit (t1 >= 1.4 * t4) ? 0 : 1;
    }' || fail "batch=1 forward no longer scales >= 1.4x from 1 to 4 threads" || return 1
    echo "==> bench_check: batch=1 intra-request scaling holds (>= 1.4x at 4 threads)"
}

# Peak-memory regression gate (allocation accounting): re-run the serve
# memory bench and compare the fresh run against the committed baseline in
# results/BENCH_memory.json. Fails when fresh peak bytes or allocs per
# request grow past 1.25x the committed values — the gate that catches a
# per-request allocation leak or an accidental working-set blow-up before
# it ships. The committed file is refreshed deliberately
# (target/release/lttf bench-serve --mode memory --out-dir results) when
# an allocation-rate change is intentional.
MEMBASE=results/BENCH_memory.json

gate_memory() {
    if [[ ! -f "$MEMBASE" ]]; then
        echo "no committed memory baseline at $MEMBASE; skipping peak-memory gate" >&2
        return 0
    fi
    echo "==> serve peak-memory gate (fresh lttf bench-serve --mode memory vs $MEMBASE)"
    cargo build -q --release --offline --locked || fail "release build failed" || return 1
    target/release/lttf bench-serve --mode memory --out-dir "$FRESH_DIR" >/dev/null \
        || fail "memory bench run failed" || return 1
    local memfresh="$FRESH_DIR/BENCH_memory.json"
    [[ -f "$memfresh" ]] || fail "memory bench produced no $memfresh" || return 1
    memfield() { sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p" "$1" | head -n 1; }
    local base_peak base_allocs fresh_peak fresh_allocs
    base_peak=$(memfield "$MEMBASE" peak_bytes)
    base_allocs=$(memfield "$MEMBASE" allocs_per_request)
    fresh_peak=$(memfield "$memfresh" peak_bytes)
    fresh_allocs=$(memfield "$memfresh" allocs_per_request)
    [[ -n "$base_peak" && -n "$base_allocs" ]] \
        || fail "$MEMBASE has no peak_bytes/allocs_per_request fields" || return 1
    if [[ "$fresh_peak" == 0 || "$fresh_allocs" == 0 ]]; then
        echo "SKIP: fresh memory bench read zeroed counters (allocator compiled out?);" \
             "peak-memory gate not evaluated" >&2
        return 0
    fi
    awk -v bp="$base_peak" -v fp="$fresh_peak" -v ba="$base_allocs" -v fa="$fresh_allocs" 'BEGIN {
        printf "peak bytes: baseline %d, fresh %d (%.2fx); allocs/request: baseline %d, fresh %d (%.2fx)\n",
            bp, fp, fp / bp, ba, fa, fa / ba;
        exit (fp <= 1.25 * bp && fa <= 1.25 * ba) ? 0 : 1;
    }' || fail "serve memory footprint regressed past 1.25x the committed baseline" || return 1
    echo "==> bench_check: serve peak memory and allocation rate within 1.25x of baseline"
}

failed=()
gate() {
    "gate_$1" || failed+=("$1")
}

gate kernels
gate telemetry
gate replicas
gate streaming
if [[ -f "$FROZEN" ]]; then run_parallel_scaling; fi
gate simd
gate b1_scaling
gate memory

if (( ${#failed[@]} )); then
    echo "==> bench_check: FAILED gates: ${failed[*]}" >&2
    exit 1
fi
echo "==> bench_check: every gate passed"
