#!/usr/bin/env bash
# Alternated simultaneous pairs: two builds of the ledger on one workload.
#
#   ledger/pairs.sh BASE_BIN CHANGE_BIN WORKLOAD N [SEED]
#
# BASE_BIN and CHANGE_BIN are `benchmark` binaries, each built in its own
# checkout with `cargo build --release --manifest-path benchmark/Cargo.toml`.
# A pair starts both binaries' hidden `rep` child at the same moment, one per
# core where `taskset` can pin them, so both halves run on the same machine in
# the same minute; the launch order (and the cores) alternate from pair to
# pair. The host drifts by +-10 % over minutes, which a pair cancels and a
# back-to-back `compare` does not.
#
# Prints one line per side of each pair: every end-to-end metric BENCHMARK.json
# bounds (node-sim-s/s as the run's wall seconds, setup_s, peak_rss_mb,
# attached_pct, reconnect_s with its sample count, peerhood.app.reconnects)
# beside the routing handovers completed (peerhood.handover.completions), and
# ops_failed/ops_attempted. Then, over the N pairs, each metric's
# change/base ratio — median, range, and how many pairs the change won in the
# metric's better direction — each side's failed-ops share, reconnect
# samples and handovers, and each side's sim_digests (a byte-identical change
# prints the same single digest on both sides). A mean reconnect time is read
# with its base: fewer, shorter samples is not the same gain as as many,
# shorter ones, and the handover count says which mechanism moved.
#
# A `rep`'s setup_s is one cold set-up in a fresh process; the benchmark's own
# pipeline reports the fastest of 15 set-ups, so setup_s here is the noisier
# of the two and its spread says more than its median.
set -euo pipefail

if [ $# -lt 4 ]; then
    echo "usage: $0 BASE_BIN CHANGE_BIN WORKLOAD N [SEED]" >&2
    exit 2
fi
base=$1 change=$2 workload=$3 n=$4 seed=${5:-20080815}
for bin in "$base" "$change"; do
    [ -x "$bin" ] || { echo "$bin: not an executable" >&2; exit 2; }
done

# `rep` prints one JSON line; pull one field (or one of its `counts`) out of
# it, or nothing when the line lacks it (a probe city counts no app samples).
field() { sed -nE "s/.*\"${1//./\\.}\":\"?([^,\"}]*).*/\1/p" <<<"$2"; }

pin() {
    if command -v taskset >/dev/null && [ "$(nproc)" -ge 2 ]; then
        taskset -c "$1" "${@:2}"
    else
        "${@:2}"
    fi
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
# One row per side of each pair: pair side run setup rss attached reconnect failed attempted digest samples
# handovers (a count the line lacks reads n/a, so every row has every column)
for ((i = 0; i < n; i++)); do
    first=base second=change
    if ((i % 2)); then first=change second=base; fi
    # The first-launched half takes core 0; the two are started back to back.
    pin 0 "${!first}" rep --workload "$workload" --seed "$seed" --trace 0 >"$out/$first" &
    a=$!
    pin 1 "${!second}" rep --workload "$workload" --seed "$seed" --trace 0 >"$out/$second" &
    b=$!
    wait "$a" "$b"
    printf 'pair %2d (%s first)\n' "$((i + 1))" "$first"
    for side in base change; do
        line=$(tail -1 "$out/$side")
        row="$((i + 1)) $side"
        for key in run_s setup_s peak_rss_mb attached_pct reconnect_s ops_failed ops_attempted sim_digest \
            peerhood.app.reconnects peerhood.handover.completions; do
            value=$(field "$key" "$line")
            row+=" ${value:-n/a}"
        done
        echo "$row" >>"$out/rows"
        awk '{ printf "  %-6s run %.3f s, setup %.4f s, rss %.1f MB, attached %.2f %%, reconnect %.2f s over %s samples (%s handovers), failed %d/%d (%.2f %%), digest %s\n",
            $2 ":", $3, $4, $5, $6, $7, $11, $12, $8, $9, 100 * $8 / $9, $10 }' <<<"$row"
    done
done

awk -v w="$workload" -v n="$n" '
    # Sorts a[1..k] ascending (k is small).
    function sort(a, k,    i, j, t) {
        for (i = 2; i <= k; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # The mean count per pair of one side, or n/a when a row of that side lacks the count.
    function per_pair(sum, na, side) {
        return na[side] ? "n/a" : sprintf("%.0f", sum[side] / n)
    }
    function summary(name, col, higher, note,    i, k, r, wins, median) {
        k = 0; wins = 0
        for (i = 1; i <= n; i++) {
            # node_sim_s_per_s is sim seconds over wall seconds: its ratio is base run_s over change run_s.
            r[++k] = col == 3 ? v["base", i, 3] / v["change", i, 3] : v["change", i, col] / v["base", i, col]
            wins += higher ? r[k] > 1 : r[k] < 1
        }
        sort(r, k)
        median = k % 2 ? r[(k + 1) / 2] : (r[k / 2] + r[k / 2 + 1]) / 2
        printf "  %-17s median %+.1f %%, range %+.1f .. %+.1f %%, change won %d/%d (%s is better)%s\n",
            name, (median - 1) * 100, (r[1] - 1) * 100, (r[k] - 1) * 100, wins, k, higher ? "higher" : "lower", note
    }
    {
        for (c = 3; c <= 9; c++) v[$2, $1, c] = $c + 0
        failed[$2] += $8; attempted[$2] += $9; samples[$2] += $11; handovers[$2] += $12
        # A count one row lacks is unknown for its side, not zero.
        if ($11 == "n/a") samples_na[$2] = 1
        if ($12 == "n/a") handovers_na[$2] = 1
        if (!seen[$2, $10]++) digests[$2] = digests[$2] " " $10
    }
    END {
        printf "%s, %d alternated pairs, change/base:\n", w, n
        summary("node_sim_s_per_s", 3, 1, "")
        summary("setup_s", 4, 0, " (one cold set-up per rep, not the pipeline fastest of 15)")
        summary("peak_rss_mb", 5, 0, "")
        summary("sim_attached_pct", 6, 1, "")
        summary("sim_reconnect_s", 7, 0, "")
        printf "failed ops: base %d/%d (%.2f %%), change %d/%d (%.2f %%)\n",
            failed["base"], attempted["base"], 100 * failed["base"] / attempted["base"],
            failed["change"], attempted["change"], 100 * failed["change"] / attempted["change"]
        printf "reconnect samples per pair: base %s, change %s; handovers per pair: base %s, change %s\n",
            per_pair(samples, samples_na, "base"), per_pair(samples, samples_na, "change"),
            per_pair(handovers, handovers_na, "base"), per_pair(handovers, handovers_na, "change")
        printf "sim_digest base%s, change%s\n", digests["base"], digests["change"]
    }' "$out/rows"
