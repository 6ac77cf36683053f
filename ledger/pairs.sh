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
# Prints one line per pair, then the median of the change/base
# node-sim-s/s ratios (base run_s over change run_s), their range, how many
# pairs the change won, and each side's sim_digests over all its runs (a
# byte-identical change prints the same single digest on both sides).
set -euo pipefail

if [ $# -lt 4 ]; then
    echo "usage: $0 BASE_BIN CHANGE_BIN WORKLOAD N [SEED]" >&2
    exit 2
fi
base=$1 change=$2 workload=$3 n=$4 seed=${5:-20080815}
for bin in "$base" "$change"; do
    [ -x "$bin" ] || { echo "$bin: not an executable" >&2; exit 2; }
done

# `rep` prints one JSON line; pull one field out of it.
field() { sed -E "s/.*\"$1\":\"?([^,\"]*).*/\1/" <<<"$2"; }

pin() {
    if command -v taskset >/dev/null && [ "$(nproc)" -ge 2 ]; then
        taskset -c "$1" "${@:2}"
    else
        "${@:2}"
    fi
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
ratios=()
for ((i = 0; i < n; i++)); do
    first=base second=change
    if ((i % 2)); then first=change second=base; fi
    # The first-launched half takes core 0; the two are started back to back.
    pin 0 "${!first}" rep --workload "$workload" --seed "$seed" --trace 0 >"$out/$first" &
    a=$!
    pin 1 "${!second}" rep --workload "$workload" --seed "$seed" --trace 0 >"$out/$second" &
    b=$!
    wait "$a" "$b"
    b_line=$(tail -1 "$out/base")
    c_line=$(tail -1 "$out/change")
    b_run=$(field run_s "$b_line")
    c_run=$(field run_s "$c_line")
    ratio=$(awk -v b="$b_run" -v c="$c_run" 'BEGIN { printf "%.4f", b / c }')
    ratios+=("$ratio")
    field sim_digest "$b_line" >>"$out/base.digests"
    field sim_digest "$c_line" >>"$out/change.digests"
    printf 'pair %2d (%s first): base %.3f s, change %.3f s, ratio %s\n' \
        "$((i + 1))" "$first" "$b_run" "$c_run" "$ratio"
done

digests() { sort -u "$out/$1.digests" | paste -sd' ' -; }
printf '%s\n' "${ratios[@]}" | sort -g | awk -v w="$workload" -v bd="$(digests base)" -v cd="$(digests change)" '
    { r[NR] = $1; wins += ($1 > 1) }
    END {
        median = NR % 2 ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
        printf "%s: node_sim_s_per_s change/base median %+.1f %%, range %+.1f .. %+.1f %%, change won %d/%d\n",
            w, (median - 1) * 100, (r[1] - 1) * 100, (r[NR] - 1) * 100, wins, NR
        printf "sim_digest base %s, change %s\n", bd, cd
    }'
