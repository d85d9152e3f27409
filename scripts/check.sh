#!/bin/sh
# Repo health check, split into the same stages CI runs.
#
#   ./scripts/check.sh              run every stage
#   ./scripts/check.sh <stage>...   run only the named stages
#
# Stages:
#   build        release build of the whole workspace and of the
#                stand-alone benchmark package in perfbench/
#   test         debug + release test suites of every crate (tier-1 gate)
#   fmt          cargo fmt --check
#   clippy       cargo clippy --workspace --all-targets -D warnings, and
#                the workspace docs built with rustdoc warnings denied
#   determinism  byte-identical traces: seeded, chain workers 1 vs 4,
#                repair on/off
#   checkpoint   resume-equivalence gates: interrupted-then-resumed runs
#                reproduce results, stats, and traces bit-identically,
#                checkpoint and store files match their pinned byte
#                digests, and the kill-and-resume bench writes no more
#                often than the write gap allows, at a bounded cost of one
#                write (plus a synthetic-regression negative test)
#   bench        bench harness end to end: trace diffs across chain worker
#                counts and repair modes, BENCH_repair.json speedup record
#   objectives   evaluation-pipeline gates: default objective byte-identical
#                to the pre-refactor goldens, Pareto frontier invariants,
#                and the budgeted bench rejecting infeasible proposals with
#                traces invariant in worker count
#   profile      observability gates: profiler + heartbeat trace-invisible,
#                metric names documented, golden phase table from a
#                deterministic trace, >= 95% eval-time attribution, and
#                the median-share one of three fresh 480-proposal
#                BENCH_dse.json records holding the system step under 50%
#                of eval time, schedule + repair under 0.76 of eval time
#                outside the system step and the store's capture, and
#                proposals/s at least half the committed record (plus
#                synthetic-regression negative tests of all three gates)
#   sim          simulator fast-path gates: differential oracle (pruned +
#                cached sweep vs exhaustive) across every workload, the
#                analytic lower-bound property, oracle mode invisible in
#                traces, and BENCH_sim.json holding >= 5x median eval
#                speedup with winners identical to exhaustive search
#   service      multi-tenant job-server gates: the persistent-store unit
#                suite, the hand-edited store-entry cases, the trace-op
#                capture tests store entries depend on, the pinned
#                store-entry byte digests, the
#                cross-tenant differential suite at 1 and 4 workers,
#                and BENCH_service.json holding >= 2x median
#                warm-cache speedup with concurrent-vs-sequential job
#                artifacts byte-identical (plus a synthetic-divergence
#                negative test of the gate itself)
#   placement    spatial-placement gates: the placement property + golden
#                suite (default-objective runs byte-identical with the
#                stage present, placement-aware runs deterministic across
#                thread counts), the placer unit suite, and
#                BENCH_placement.json holding sweep-direction-stable
#                winners with the congestion/wirelength medians inside the
#                tolerance bands (plus a synthetic-violation negative test
#                of the gate itself)
#   rewrite      rewrite-engine gates: the rule/delta/inference unit
#                suite, the golden equivalence suite (compound off
#                byte-identical to the pre-rewrite pins, compound on
#                deterministic across threads/cache/resume), and
#                BENCH_rewrite.json holding the repair fast-path share at
#                its hand-classified baseline in both compound modes with
#                a clean release-mode inference oracle (plus a synthetic-
#                regression negative test of the gate itself)
#   results      reproducibility gate: the 13 paper experiments of
#                run_experiments.sh regenerate into a temp dir and every
#                table must diff clean against results/ (plus a
#                hand-edited-table negative test of the diff itself)
#
# Experiments run through the single `overgen-bench <experiment>`
# dispatcher binary.
set -e

# One temp root for every stage's traces and records, removed on exit.
# CI sets CHECK_TRACE_DIR so failing traces survive for artifact upload:
# it is the root then, and is kept.
if [ -n "${CHECK_TRACE_DIR:-}" ]; then
    CHECK_TMP=$CHECK_TRACE_DIR
    mkdir -p "$CHECK_TMP"
else
    CHECK_TMP=$(mktemp -d)
    trap 'rm -rf "$CHECK_TMP"' EXIT INT TERM
fi

# Print a fresh subdirectory of the temp root for one stage.
stage_dir() {
    mkdir -p "$CHECK_TMP/$1"
    echo "$CHECK_TMP/$1"
}

stage_build() {
    echo "== build: release workspace =="
    cargo build --release
    echo "== build: benchmark package (its own workspace) =="
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
}

stage_test() {
    # The workspace's default-members cover every crate, so both legs run
    # the crates' unit tests as well as the root integration tests.
    echo "== test: tier-1 (debug) =="
    cargo test -q
    echo "== test: full suite under optimizations =="
    cargo test -q --release
}

stage_fmt() {
    echo "== fmt =="
    cargo fmt --all --check
}

stage_clippy() {
    echo "== clippy (-D warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings
    echo "== docs (-D warnings) =="
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
}

stage_determinism() {
    echo "== determinism: byte-identical seeded JSONL trace =="
    cargo test -q --test telemetry_trace \
        deterministic_trace_is_byte_identical_and_well_formed

    echo "== determinism: results + traces invariant in worker count =="
    # `threads` sets how many chains run at once. The suite compares one
    # chain at threads 1, 2 and 4 and four chains at 1, 4 and one-per-core
    # workers internally; running it under both env defaults also covers
    # the bench-harness plumbing.
    OVERGEN_DSE_THREADS=1 cargo test -q --test parallel_determinism
    OVERGEN_DSE_THREADS=4 cargo test -q --test parallel_determinism

    echo "== determinism: repair fast path invisible in results + traces =="
    cargo test -q --test repair_determinism
    cargo test -q --test properties incremental_repair_equals_full_replacement
}

stage_checkpoint() {
    echo "== checkpoint: resume equivalence at 1 and 4 workers =="
    OVERGEN_DSE_THREADS=1 cargo test -q --test checkpoint_resume
    OVERGEN_DSE_THREADS=4 cargo test -q --test checkpoint_resume

    echo "== checkpoint: checkpoint and store bytes match the pinned digests =="
    cargo test -q --test codec_equivalence

    echo "== checkpoint: kill-and-resume bench, write count and cost of a write =="
    CK_TMP=$(stage_dir checkpoint)
    OVERGEN_RESULTS_DIR="$CK_TMP" cargo run -q --release -p overgen-bench \
        -- checkpoint >/dev/null
    grep -q '"resume_match":true' "$CK_TMP/BENCH_checkpoint.json" \
        || { echo "FAIL: kill-and-resume diverged from the uninterrupted run"; exit 1; }
    grep -q '"checkpoint_invisible":true' "$CK_TMP/BENCH_checkpoint.json" \
        || { echo "FAIL: checkpoint writes perturbed the run"; exit 1; }
    # The gate measures the writes, not the run they share: the run keeps
    # getting shorter while one fsync'd write does not, so a share of wall
    # time failed clean runs. Periodic writes must keep MIN_WRITE_GAP apart
    # (writes <= max_writes: one per full gap of wall time plus the final
    # write), and one write (save_us, the fastest of five re-saves of the
    # run's checkpoint) must take under 5 ms. On a 2-vCPU VM save_us reads
    # 0.3-0.6 ms, while single in-run writes behind an fsync stall of the
    # shared disk took 44 and 83 ms. overhead_pct stays in the record,
    # ungated.
    check_writes "$CK_TMP/BENCH_checkpoint.json"

    echo "== checkpoint: injected extra write must fail the gate =="
    awk '{ if (match($0, /"max_writes":[0-9]+/)) m = substr($0, RSTART + 13, RLENGTH - 13) + 0
           sub(/"writes":[0-9]+/, "\"writes\":" (m + 1)); print }' \
        "$CK_TMP/BENCH_checkpoint.json" > "$CK_TMP/regressed.json"
    if check_writes "$CK_TMP/regressed.json" >/dev/null; then
        echo "FAIL: the write gate accepted more writes than the gap allows"; exit 1
    fi
}

# Gate a BENCH_checkpoint.json record: write count within the gap's
# allowance, the cost of one write under the bound.
check_writes() {
    awk -v bound=5000 '
        function num(k) {
            if (!match($0, "\"" k "\":[0-9.eE+-]+")) { print "FAIL: " k " missing"; exit 1 }
            return substr($0, RSTART + length(k) + 3, RLENGTH - length(k) - 3) + 0
        }
        {
            w = num("writes"); m = num("max_writes"); us = num("save_us")
            if (w > m) { print "FAIL: " w " checkpoint writes where the write gap allows " m; exit 1 }
            if (us >= bound) { print "FAIL: a checkpoint write took " us " us (bound " bound ")"; exit 1 }
            print "checkpoint: " w " write(s) of " m " allowed, " us " us each, " num("overhead_pct") "% of wall"
        }' "$1"
}

stage_bench() {
    TRACE_TMP=$(stage_dir bench)

    echo "== bench: trace diff across worker counts =="
    # `threads` only runs chains in parallel (one chain evaluates serially
    # at any count), so both legs run two chains: on one worker vs four.
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_RESULTS_DIR="$TRACE_TMP/t1" \
        OVERGEN_DSE_CHAINS=2 OVERGEN_DSE_THREADS=1 \
        cargo run -q --release -p overgen-bench -- fig18 >/dev/null
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_RESULTS_DIR="$TRACE_TMP/t4" \
        OVERGEN_DSE_CHAINS=2 OVERGEN_DSE_THREADS=4 \
        cargo run -q --release -p overgen-bench -- fig18 >/dev/null
    diff "$TRACE_TMP/t1/fig18.trace.jsonl" "$TRACE_TMP/t4/fig18.trace.jsonl" \
        || { echo "FAIL: traces differ across worker counts"; exit 1; }

    echo "== bench: trace diff with repair fast path on vs off =="
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_RESULTS_DIR="$TRACE_TMP/r1" \
        OVERGEN_REPAIR=1 cargo run -q --release -p overgen-bench \
        -- repair >/dev/null
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_RESULTS_DIR="$TRACE_TMP/r0" \
        OVERGEN_REPAIR=0 cargo run -q --release -p overgen-bench \
        -- repair >/dev/null
    diff "$TRACE_TMP/r1/repair.trace.jsonl" "$TRACE_TMP/r0/repair.trace.jsonl" \
        || { echo "FAIL: traces differ with repair on vs off"; exit 1; }

    echo "== bench: repair speedup record =="
    # The r1 leg above wrote the real record; assert it reports a speedup.
    grep -q '"median_speedup"' "$TRACE_TMP/r1/BENCH_repair.json" \
        || { echo "FAIL: BENCH_repair.json missing median_speedup"; exit 1; }

    echo "== bench: perf-regression gate against the committed baseline =="
    # Deterministic ratios get hard bands; absolute wall numbers only get
    # presence checks (machines differ). The committed baseline ran at 60
    # iterations, the candidate at 10 — the bands absorb that (the timed
    # mutation chain is the same 60 proposals at any iteration count).
    # The median-speedup floor sits between the two repair paths it must
    # tell apart. On a 2-vCPU VM, 40 runs of what an evaluation runs (one
    # shared hardware index per proposal) read 6.28-7.24x, and 40 runs of
    # the per-call `repair_with` it replaced read 4.34-4.96x; 18% under
    # the 6.85x record is a 5.61x floor.
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_repair.json "$TRACE_TMP/r1/BENCH_repair.json" \
        min:dse.fast_share=0.5 \
        max-drop:timing.median_speedup=0.18 \
        min:timing.min_speedup=1.0 \
        require:timing.proposals \
        require:timing.median_repair_seconds \
        || { echo "FAIL: repair benchmark regressed past the tolerance bands"; exit 1; }

    echo "== bench: injected synthetic regression must fail the gate =="
    # 4.7x is the median of the per-call repair path's 40 runs.
    sed -e 's/"fast_share":[0-9.eE+-]*/"fast_share":0.01/' \
        -e 's/"median_speedup":[0-9.eE+-]*/"median_speedup":4.7/' \
        "$TRACE_TMP/r1/BENCH_repair.json" > "$TRACE_TMP/regressed.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_repair.json "$TRACE_TMP/regressed.json" \
        min:dse.fast_share=0.5 >/dev/null; then
        echo "FAIL: bench-compare accepted a synthetic fast-share regression"; exit 1
    fi
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_repair.json "$TRACE_TMP/regressed.json" \
        max-drop:timing.median_speedup=0.18 >/dev/null; then
        echo "FAIL: bench-compare accepted a per-call repair median speedup"; exit 1
    fi
}

stage_objectives() {
    echo "== objectives: default objective byte-identical to pre-refactor =="
    cargo test -q --test objective_equivalence

    echo "== objectives: Pareto frontier invariants =="
    cargo test -q --test properties \
        pareto_front_is_the_non_dominated_subset_in_canonical_order

    PF_TMP=$(stage_dir pareto)

    echo "== objectives: budgeted bench trace diff across worker counts =="
    # At one chain both legs run the same serial path; the t1 leg's record
    # also feeds the winner and infeasible gates below.
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_RESULTS_DIR="$PF_TMP/t1" \
        OVERGEN_DSE_THREADS=1 cargo run -q --release -p overgen-bench \
        -- pareto >/dev/null
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_RESULTS_DIR="$PF_TMP/t4" \
        OVERGEN_DSE_THREADS=4 cargo run -q --release -p overgen-bench \
        -- pareto >/dev/null
    diff "$PF_TMP/t1/pareto.trace.jsonl" "$PF_TMP/t4/pareto.trace.jsonl" \
        || { echo "FAIL: pareto traces differ across worker counts"; exit 1; }

    echo "== objectives: tight budget rejects infeasible proposals =="
    grep -q '"winner_admitted":true' "$PF_TMP/t1/BENCH_pareto.json" \
        || { echo "FAIL: budgeted winner overflows its own budget"; exit 1; }
    awk 'match($0, /"infeasible":[0-9]+/) {
            n = substr($0, RSTART + 13, RLENGTH - 13)
            if (n + 0 < 1) { print "FAIL: no infeasible rejections recorded"; exit 1 }
            found = 1
         }
         END { if (!found) { print "FAIL: infeasible count missing"; exit 1 } }' \
        "$PF_TMP/t1/BENCH_pareto.json"
}

stage_profile() {
    echo "== profile: profiler + heartbeat invisible to traces, names documented =="
    cargo test -q --test profiling_determinism
    cargo test -q --test metric_names

    PROF_TMP=$(stage_dir profile)

    echo "== profile: golden phase table from a deterministic trace =="
    # The trace clock is logical ticks, so the rendered table is identical
    # on every machine; regenerate the golden with the same command if a
    # deliberate change moves it.
    OVERGEN_TRACE=1 OVERGEN_DSE_ITERS=10 OVERGEN_DSE_THREADS=1 \
        OVERGEN_RESULTS_DIR="$PROF_TMP" cargo run -q --release -p overgen-bench \
        -- dse >/dev/null
    cargo run -q --release -p overgen-bench --bin overgen-profile -- \
        "$PROF_TMP/dse.trace.jsonl" > "$PROF_TMP/profile_table.txt"
    diff results/profile_table.golden.txt "$PROF_TMP/profile_table.txt" \
        || { echo "FAIL: phase table drifted from results/profile_table.golden.txt"; exit 1; }

    echo "== profile: chrome trace-event export =="
    cargo run -q --release -p overgen-bench --bin overgen-profile -- \
        "$PROF_TMP/dse.trace.jsonl" --chrome "$PROF_TMP/dse.chrome.json" >/dev/null
    grep -q '"traceEvents":\[{' "$PROF_TMP/dse.chrome.json" \
        || { echo "FAIL: chrome export has no events"; exit 1; }

    echo "== profile: >= 95% of eval wall time attributed to a named phase =="
    awk 'match($0, /"coverage":[0-9.]+/) {
            c = substr($0, RSTART + 11, RLENGTH - 11)
            if (c + 0 < 0.95) { print "FAIL: coverage " c " < 0.95"; exit 1 }
            found = 1
         }
         END { if (!found) { print "FAIL: coverage missing"; exit 1 } }' \
        "$PROF_TMP/dse.profile.json"

    echo "== profile: DSE throughput record against the committed baseline =="
    # Fresh 480-proposal runs, as results/BENCH_dse.json was made: one
    # 60-proposal run held ~9 ms of eval, where one preemption moved a
    # share by tens of points. The nested system step must stay a minority
    # of eval time and eval time stay attributed. The scheduler's share is
    # schedule + repair over eval time outside the system step and the
    # store's capture (none here: the bench has no store), so a faster
    # sweep does not raise it. Three
    # runs are made and the one with the median scheduler share is gated,
    # so one preempted run cannot decide the gate. On a 2-vCPU VM medians
    # of three read 0.688-0.729 (50) with the per-slot placement tables and
    # 0.785-0.807 (25) with what they replaced (ordered distance maps read
    # on every candidate comparison, and a scan of every node against an
    # ordered set per instruction), so the band sits between the two and
    # fails a revert.
    # Throughput may drop to half the committed record: a short run is at
    # the mercy of host load, so the band catches a halving, not a revert
    # of one optimization. The fastest of 50 variant-compile passes over
    # the domain may rise to twice the record: on a 2-vCPU VM it reads
    # 173-296 us (40 runs), and 703-1195 us (40 runs) when every variant
    # re-analyses its kernel as lowering did before the shared analysis.
    for run in 1 2 3; do
        OVERGEN_RESULTS_DIR="$PROF_TMP/bench$run" OVERGEN_DSE_THREADS=1 \
            OVERGEN_DSE_ITERS=480 cargo run -q --release -p overgen-bench -- dse >/dev/null
    done
    shares=$(for run in 1 2 3; do
        share=$(grep -o '"scheduler_share":[0-9.eE+-]*' "$PROF_TMP/bench$run/BENCH_dse.json")
        echo "${share#*:} $run"
    done | sort -n)
    echo "scheduler shares of the three runs:" $(echo "$shares" | cut -d' ' -f1)
    median=$(echo "$shares" | sed -n 2p)
    mkdir -p "$PROF_TMP/bench"
    cp "$PROF_TMP/bench${median#* }/BENCH_dse.json" "$PROF_TMP/bench/BENCH_dse.json"
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_dse.json "$PROF_TMP/bench/BENCH_dse.json" \
        max:profile.system_share=0.5 \
        max:profile.scheduler_share=0.76 \
        min:profile.coverage=0.95 \
        max-drop:proposals_per_sec=0.5 \
        max-rise:compile.best_us=1.0 \
        || { echo "FAIL: DSE benchmark regressed past the tolerance bands"; exit 1; }

    echo "== profile: injected compile-pass regression must fail the gate =="
    sed -e 's/"best_us":[0-9.eE+-]*/"best_us":1000.0/' \
        "$PROF_TMP/bench/BENCH_dse.json" > "$PROF_TMP/regressed.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_dse.json "$PROF_TMP/regressed.json" \
        max-rise:compile.best_us=1.0 >/dev/null; then
        echo "FAIL: bench-compare accepted a synthetic compile-pass regression"; exit 1
    fi

    echo "== profile: injected throughput regression must fail the gate =="
    sed -e 's/"proposals_per_sec":[0-9.eE+-]*/"proposals_per_sec":1500.0/' \
        "$PROF_TMP/bench/BENCH_dse.json" > "$PROF_TMP/regressed.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_dse.json "$PROF_TMP/regressed.json" \
        max-drop:proposals_per_sec=0.5 >/dev/null; then
        echo "FAIL: bench-compare accepted a synthetic throughput regression"; exit 1
    fi

    echo "== profile: injected system-share regression must fail the gate =="
    sed -e 's/"system_share":[0-9.eE+-]*/"system_share":0.96/' \
        "$PROF_TMP/bench/BENCH_dse.json" > "$PROF_TMP/regressed.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_dse.json "$PROF_TMP/regressed.json" \
        max:profile.system_share=0.5 \
        min:profile.coverage=0.95 >/dev/null; then
        echo "FAIL: bench-compare accepted a synthetic system-share regression"; exit 1
    fi

    echo "== profile: injected scheduler-share regression must fail the gate =="
    sed -e 's/"scheduler_share":[0-9.eE+-]*/"scheduler_share":0.79/' \
        "$PROF_TMP/bench/BENCH_dse.json" > "$PROF_TMP/regressed.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_dse.json "$PROF_TMP/regressed.json" \
        max:profile.scheduler_share=0.76 >/dev/null; then
        echo "FAIL: bench-compare accepted a synthetic scheduler-share regression"; exit 1
    fi
}

stage_sim() {
    echo "== sim: differential oracle, pruned + cached sweep vs exhaustive =="
    # OVERGEN_SIM_ORACLE=1 inside the suite runs a shadow exhaustive sweep
    # (plain SimBatch::run, no pruning, no reuse cache) next to the real
    # one and asserts identical winners on every workload.
    cargo test -q --release --test sim_oracle

    echo "== sim: analytic model is a true lower bound =="
    cargo test -q --test properties analytic_bound_never_exceeds_simulated_cycles

    SIM_TMP=$(stage_dir sim)

    echo "== sim: oracle shadow sweep invisible in the bench trace =="
    # The shadow sweep must not emit telemetry: the deterministic
    # (logical-clock) trace of the full benchmark has to be byte-identical
    # with the oracle on and off. Timing in BENCH_sim.json legitimately
    # differs, so only the traces are diffed; the gate below reads the
    # oracle-off leg, whose timings are the real fast-path numbers.
    OVERGEN_TRACE=1 OVERGEN_SIM_ORACLE=1 OVERGEN_RESULTS_DIR="$SIM_TMP/o1" \
        cargo run -q --release -p overgen-bench -- sim >/dev/null
    OVERGEN_TRACE=1 OVERGEN_SIM_ORACLE=0 OVERGEN_RESULTS_DIR="$SIM_TMP/o0" \
        cargo run -q --release -p overgen-bench -- sim >/dev/null
    diff "$SIM_TMP/o1/sim.trace.jsonl" "$SIM_TMP/o0/sim.trace.jsonl" \
        || { echo "FAIL: oracle shadow sweep perturbed the trace"; exit 1; }

    echo "== sim: >= 5x median eval speedup at unchanged winners =="
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_sim.json "$SIM_TMP/o0/BENCH_sim.json" \
        min:summary.median_speedup=5 \
        min:summary.winner_match_all=1 \
        require:summary.pruned \
        require:summary.reused \
        || { echo "FAIL: simulator fast path regressed past the speedup/winner gate"; exit 1; }

    echo "== sim: injected winner divergence must fail the gate =="
    sed -e 's/"winner_match_all":true/"winner_match_all":false/' \
        -e 's/"median_speedup":[0-9.eE+-]*/"median_speedup":1.2/' \
        "$SIM_TMP/o0/BENCH_sim.json" > "$SIM_TMP/diverged.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_sim.json "$SIM_TMP/diverged.json" \
        min:summary.median_speedup=5 \
        min:summary.winner_match_all=1 >/dev/null; then
        echo "FAIL: bench-compare accepted a diverged winner"; exit 1
    fi
}

stage_service() {
    echo "== service: persistent store edge cases (corruption, versioning, races, span pairing) =="
    cargo test -q --release -p overgen-dse -- store:: \
        checkpoint::tests::hand_edited_fields_fail_with_a_reason_that_names_them
    cargo test -q --release -p overgen-telemetry -- capture::

    echo "== service: store entry bytes match the pinned digests =="
    cargo test -q --release --test codec_equivalence

    echo "== service: cross-tenant differential suite at 1 and 4 workers =="
    # The suite compares workers=1 vs 4 internally; running it under both
    # per-job thread defaults also covers the job-level parallelism axis.
    OVERGEN_DSE_THREADS=1 cargo test -q --release --test service_determinism
    OVERGEN_DSE_THREADS=4 cargo test -q --release --test service_determinism

    SVC_TMP=$(stage_dir service)

    echo "== service: >= 2x warm-cache speedup, concurrent == sequential =="
    OVERGEN_RESULTS_DIR="$SVC_TMP" cargo run -q --release -p overgen-bench \
        -- service >/dev/null
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_service.json "$SVC_TMP/BENCH_service.json" \
        min:summary.median_warm_speedup=2 \
        min:summary.identity=1 \
        min:store.hits=1 \
        max:store.misses=0 \
        require:store.warm_entries \
        || { echo "FAIL: service benchmark regressed past the speedup/identity gate"; exit 1; }

    echo "== service: injected artifact divergence must fail the gate =="
    sed -e 's/"identity":true/"identity":false/' \
        -e 's/"median_warm_speedup":[0-9.eE+-]*/"median_warm_speedup":1.1/' \
        "$SVC_TMP/BENCH_service.json" > "$SVC_TMP/diverged.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_service.json "$SVC_TMP/diverged.json" \
        min:summary.median_warm_speedup=2 \
        min:summary.identity=1 >/dev/null; then
        echo "FAIL: bench-compare accepted diverged service artifacts"; exit 1
    fi

    echo "== service: a missing baseline must exit 3, not read as a pass =="
    rc=0
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        "$SVC_TMP/no-such-baseline.json" "$SVC_TMP/BENCH_service.json" \
        min:summary.identity=1 >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 3 ] \
        || { echo "FAIL: bench-compare must exit 3 on a missing baseline (got $rc)"; exit 1; }
}

stage_placement() {
    echo "== placement: placer unit suite =="
    cargo test -q --release -p overgen-model placement

    echo "== placement: property + golden suite (default runs untouched) =="
    cargo test -q --release --test placement
    cargo test -q --release --test objective_equivalence default_objective_is_byte_identical

    PL_TMP=$(stage_dir placement)

    echo "== placement: sweep-stable winners inside the tolerance bands =="
    OVERGEN_RESULTS_DIR="$PL_TMP" cargo run -q --release -p overgen-bench \
        -- placement >/dev/null
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_placement.json "$PL_TMP/BENCH_placement.json" \
        min:summary.winner_stable=1 \
        max:summary.max_congestion=1.2 \
        require:summary.median_congestion \
        require:summary.median_wirelength \
        require:summary.mean_fmax_mhz \
        || { echo "FAIL: placement benchmark regressed past the stability/congestion gate"; exit 1; }

    echo "== placement: injected winner instability must fail the gate =="
    sed -e 's/"winner_stable":1/"winner_stable":0/' \
        -e 's/"max_congestion":[0-9.eE+-]*/"max_congestion":9.9/' \
        "$PL_TMP/BENCH_placement.json" > "$PL_TMP/unstable.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_placement.json "$PL_TMP/unstable.json" \
        min:summary.winner_stable=1 \
        max:summary.max_congestion=1.2 >/dev/null; then
        echo "FAIL: bench-compare accepted unstable placement winners"; exit 1
    fi
}

stage_rewrite() {
    echo "== rewrite: rule / delta / inference unit suite =="
    cargo test -q --release -p overgen-dse rewrite

    echo "== rewrite: compound-off goldens + compound equivalence suite =="
    cargo test -q --release --test objective_equivalence default_objective_is_byte_identical
    cargo test -q --release --test rewrite_equivalence

    RW_TMP=$(stage_dir rewrite)

    echo "== rewrite: fast-path share and inference oracle inside the gate =="
    OVERGEN_RESULTS_DIR="$RW_TMP" cargo run -q --release -p overgen-bench \
        -- rewrite >/dev/null
    cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_rewrite.json "$RW_TMP/BENCH_rewrite.json" \
        min:summary.fast_share_off=0.83 \
        min:summary.fast_share_on=0.83 \
        max:summary.oracle_weaker=0 \
        require:summary.per_application_speedup \
        require:compound_on.compound_proposals \
        || { echo "FAIL: rewrite benchmark regressed past the share/oracle gate"; exit 1; }

    echo "== rewrite: injected share regression must fail the gate =="
    sed -e 's/"fast_share_off":[0-9.eE+-]*/"fast_share_off":0.1/g' \
        -e 's/"oracle_weaker":[0-9]*/"oracle_weaker":7/' \
        "$RW_TMP/BENCH_rewrite.json" > "$RW_TMP/regressed.json"
    if cargo run -q --release -p overgen-bench --bin bench-compare -- \
        results/BENCH_rewrite.json "$RW_TMP/regressed.json" \
        min:summary.fast_share_off=0.83 \
        max:summary.oracle_weaker=0 >/dev/null; then
        echo "FAIL: bench-compare accepted a regressed rewrite record"; exit 1
    fi
}

# Diff every table in $2 against its namesake in $1; fails on any drift.
diff_tables() {
    drift=0
    for fresh in "$2"/*.txt; do
        diff -u "$1/${fresh##*/}" "$fresh" || drift=1
    done
    return $drift
}

stage_results() {
    RES_TMP=$(stage_dir results)

    echo "== results: every paper table regenerates byte-identically =="
    # The beyond-paper BENCH tables carry wall times, so only the paper
    # experiments of run_experiments.sh are diffed.
    OVERGEN_RESULTS_DIR="$RES_TMP/fresh" ./run_experiments.sh >/dev/null
    diff_tables results "$RES_TMP/fresh" \
        || { echo "FAIL: committed results/*.txt are stale; rerun ./run_experiments.sh"; exit 1; }

    echo "== results: a hand-edited table must fail the diff =="
    mkdir -p "$RES_TMP/edited"
    cp results/*.txt "$RES_TMP/edited/"
    sed '1s/$/ (edited)/' results/table3.txt > "$RES_TMP/edited/table3.txt"
    if diff_tables "$RES_TMP/edited" "$RES_TMP/fresh" >/dev/null; then
        echo "FAIL: the results diff accepted a hand-edited table"; exit 1
    fi
}

if [ $# -eq 0 ]; then
    set -- build test fmt clippy determinism checkpoint bench objectives profile sim service placement rewrite results
fi

for stage in "$@"; do
    case "$stage" in
    build | test | fmt | clippy | determinism | checkpoint | bench | objectives | profile | sim | service | placement | rewrite | results) "stage_$stage" ;;
    *)
        echo "unknown stage: $stage" >&2
        echo "usage: $0 [build|test|fmt|clippy|determinism|checkpoint|bench|objectives|profile|sim|service|placement|rewrite|results]..." >&2
        exit 2
        ;;
    esac
done

echo "ALL CHECKS PASSED"
