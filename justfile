# Workspace task runner. `just check` is the gate a PR must pass.

# Build, test, lint (clippy + lsdf-lint) the whole workspace. `--locked`:
# a Cargo.lock that no longer matches the manifests fails the gate
# instead of being rewritten on the side.
check:
    cargo build --release --locked
    cargo test -q --locked
    cargo clippy --workspace --all-targets -- -D warnings
    cargo run --release -p lsdf-lint

# Fast compile-only feedback.
build:
    cargo build --release

# Run the full test suite.
test:
    cargo test -q

# Lint with warnings promoted to errors.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Facility-invariant static analysis (determinism, metric names,
# panic-freedom, payload copies, lock discipline, lock-order analysis).
lint:
    cargo run --release -p lsdf-lint

# Machine-readable lint report (stable ordering) at
# target/lint-report.json; CI uploads it as an artifact. Findings (exit
# 1) are in the report and `just check` is the step that fails on them;
# a lint that could not run (exit 2) fails this step.
lint-json:
    mkdir -p target
    cargo run --release -p lsdf-lint -- --json > target/lint-report.json || [ $? -eq 1 ]
    cat target/lint-report.json

# Operator console: run the seeded chaos demo and print the facility
# status report it writes (tenant sparklines, breakers, durability lag,
# active alerts, slowest operations).
status:
    cargo run --release -p lsdf-examples --bin chaos_run -- 42 > /dev/null
    cat target/operator-report.txt

# Seeded chaos: the 10k-op fault-injection soak plus the demo run.
chaos:
    cargo test -q -p lsdf-integration --test chaos_soak
    cargo run --release -p lsdf-examples --bin chaos_run -- 42

# Full-scale tenant-isolation soak: thousands of tenants, one of them
# chaos-flooded, victims' p99 pinned (CI runs the reduced default).
soak-tenants:
    LSDF_SOAK_TENANTS=2000 cargo test -q --release -p lsdf-integration --test tenant_soak

# Restart-under-chaos soak: seeded kill-and-restart mid-ingest, replay-
# identical recovery, zero acked-write loss, worker-invariant registry.
# Writes the per-crash recovery reports to target/restart-soak-report.json.
soak-restart:
    LSDF_RESTART_REPORT=target/restart-soak-report.json cargo test -q --release -p lsdf-integration --test restart_soak

# Regenerate the paper-vs-measured experiment report (quick mode).
report:
    cargo run --release -p lsdf-bench --bin report -- --quick

# The facility benchmark (BENCHMARK.json's program) at smoke size: every
# workload once, failing unless its result line says `"correct": true`
# with 0 failed operations (a panic leaves no result line). Timings are
# printed, not judged: a smoke phase lasts microseconds and scatters
# wider than bounds measured on 28 s runs, which is why this is not
# `--selfcheck --smoke`. Measure with the BENCHMARK.json command and
# paired runs (README "Measuring").
bench:
    cargo build --release --offline -p lsdf-bench --bin benchmark
    for w in htm_bulk daq_events dfs_analysis browse_during_ingest; do \
        line=$(target/release/benchmark --workload $w --trace 0 --smoke | tail -n 1); \
        echo "$w $line"; \
        echo "$line" | grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,' \
            || { echo "bench: $w did not read back correct with 0 failed"; exit 1; }; \
    done

# Paired measurement of one workload, or of all four back to back when
# `workload` is `all`: the rule README "Measuring" states. Checks
# `parent` out into a git worktree under target/, builds both benchmarks
# once, runs `pairs` alternating pairs (odd pairs parent first, even
# pairs change first) of BENCHMARK.json's command per workload and
# prints, per workload and end-to-end metric in the order the benchmark
# reports them (36 rows for `all`), each side's median and quartiles,
# the move of the median, and in how many pairs the change read higher.
# With `trace` 1 both sides run `--trace 1` instead and the rows are the
# per-layer rungs (51 a workload): the "rung before/after" a perf report
# prints beside its prediction, e.g. `just bench-pair daq_events 61 3
# HEAD~1 1`. Every run's full output stays under target/bench-pair/runs/.
bench-pair workload seed pairs="10" parent="HEAD~1" trace="0":
    #!/usr/bin/env bash
    set -euo pipefail
    top=target/bench-pair; out=$top/runs/{{workload}}-{{seed}}-trace{{trace}}-$(date +%s)
    mkdir -p "$out"
    [ -d $top/parent ] || git worktree add --detach $top/parent {{parent}}
    git -C $top/parent checkout --quiet --detach {{parent}}
    (cd $top/parent && cargo build --release --offline -p lsdf-bench --bin benchmark)
    cargo build --release --offline -p lsdf-bench --bin benchmark
    cp $top/parent/target/release/benchmark $top/benchmark-parent
    cp target/release/benchmark $top/benchmark-change
    workloads={{workload}}
    [ $workloads != all ] || workloads="htm_bulk daq_events dfs_analysis browse_during_ingest"
    for w in $workloads; do
        for i in $(seq 1 {{pairs}}); do
            if (( i % 2 )); then order="parent change"; else order="change parent"; fi
            for side in $order; do
                $top/benchmark-$side --workload $w --seed {{seed}} --seconds 28 --trace {{trace}} > "$out/$w-$side-$i.txt"
                tail -n 1 "$out/$w-$side-$i.txt" \
                    | grep '^{"correct": true, "attempted": [0-9]*, "failed": 0,' \
                    | grep -o '"[a-z_0-9.]*": {"value": [-0-9.e]*' \
                    | sed "s/^\"\([a-z_0-9.]*\)\": {\"value\": /$w $side $i \1 /" >> "$out/all.txt" \
                    || { echo "bench-pair: $w $side run $i did not read back correct with 0 failed"; exit 1; }
            done
        done
    done
    awk '{ v[$1, $2, $4, $3] = $5; if ($3 > n) n = $3
           if (!($1 in ws)) { ws[$1]; w[++nw] = $1 }
           if (!($4 in ms)) { ms[$4]; m[++nm] = $4 } }
    function quartiles(wl, side, mt,    i, j, x, a) {
        for (i = 1; i <= n; i++) { x = v[wl, side, mt, i]; for (j = i - 1; j > 0 && a[j] > x; j--) a[j + 1] = a[j]; a[j + 1] = x }
        q1 = a[int((n + 3) / 4)]; q3 = a[n + 1 - int((n + 3) / 4)]
        median = (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    END {
        printf "%-21s %-34s %12s %25s %12s %25s %8s %s\n", "workload", "metric", "parent", "(quartiles)", "change", "(quartiles)", "median", "change higher"
        for (k = 1; k <= nw; k++) for (l = 1; l <= nm; l++) {
            quartiles(w[k], "parent", m[l]); pm = median; pq = sprintf("%.6g .. %.6g", q1, q3)
            quartiles(w[k], "change", m[l]); higher = 0
            for (i = 1; i <= n; i++) higher += v[w[k], "change", m[l], i] > v[w[k], "parent", m[l], i]
            printf "%-21s %-34s %12.6g %25s %12.6g %25s %+7.2f%% %d/%d\n", w[k], m[l], pm, pq, median, sprintf("%.6g .. %.6g", q1, q3), pm ? (median - pm) / pm * 100 : 0, higher, n
        }
    }' "$out/all.txt"
    echo "every run: $out"

# The full facility-day example, registry snapshot included.
day:
    cargo run --release -p lsdf-examples --bin facility_day
