#!/usr/bin/env bash
# Decision diff: do the working tree and BASE make the same decisions?
#
# usage: scripts/decision_diff.sh BASE      (BASE is any git revision)
#
# Exports BASE with `git archive` into a temporary directory, builds
# sia-cli and perfbench there and in the working tree (offline; the working
# tree's uncommitted changes included), then compares, printing one line
# per pair and exiting 1 if any pair differs:
#
#   1. perfbench's `decision digest` for the four workloads at seeds 1 and
#      4242 (`--seconds 1 --trace 0`);
#   2. the CI serve stream: responses, `--trace-out` and `--audit-out`
#      (canonical forms), plus a mid-stream snapshot restored across the
#      two builds in both directions;
#   3. `sia-cli --seed 3 --policy sia|pollux|gavel`, each plain, with the
#      CI dynamics script and with `--trace physical`: the raw
#      `--trace-out`/`--audit-out` spills and the `--json` summary with
#      their host-wall-clock fields zeroed, the `--trace-format chrome`
#      export, and `sia-cli audit --json`.
#
# Takes about 20 minutes on a 2-core host, most of it perfbench.
set -euo pipefail

base_rev=${1:?usage: scripts/decision_diff.sh BASE}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
base="$work/base"
mkdir -p "$base" "$work/out/base" "$work/out/head"
git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$base_rev^{commit}")" |
    tar -x -C "$base"

# Each tree builds into its own target directories, whatever
# CARGO_TARGET_DIR says, so the two builds never share artifacts.
for tree in "$base" "$repo"; do
    echo "building $tree ..."
    CARGO_TARGET_DIR="$tree/target" cargo build --release --offline --quiet \
        --manifest-path "$tree/Cargo.toml" --bin sia-cli
    CARGO_TARGET_DIR="$tree/perfbench/target" cargo build --release --offline --quiet \
        --manifest-path "$tree/perfbench/Cargo.toml"
done

status=0
# pair NAME BASE_VALUE HEAD_VALUE: prints one comparison line. An empty
# value means a run produced nothing, which is a failure too.
pair() {
    if [ -z "$2" ] || [ -z "$3" ]; then
        printf 'EMPTY %-44s base "%s"  head "%s"\n' "$1" "$2" "$3"
        status=1
    elif [ "$2" = "$3" ]; then
        printf 'same  %-44s %s\n' "$1" "$2"
    else
        printf 'DIFF  %-44s base %s  head %s\n' "$1" "$2" "$3"
        status=1
    fi
}
# files NAME: compares out/base/NAME with out/head/NAME by MD5 (an empty
# file compares as an empty value).
files() {
    local side sums=()
    for side in base head; do
        if [ -s "$work/out/$side/$1" ]; then
            sums+=("$(md5sum < "$work/out/$side/$1" | cut -c1-32)")
        else
            sums+=("")
        fi
    done
    pair "$1" "${sums[0]}" "${sums[1]}"
}
# Zeroes the host-wall-clock fields of a raw spill or `--json` summary.
zero_wall_clock() {
    sed -E 's/"(policy_runtime_s|solve_s|first_incumbent_s|median_policy_runtime_s)":[^,}]*/"\1":0/g'
}

echo "== perfbench decision digests"
for w in batch_philly64 scale_4096 serve_mixed fleet_elastic; do
    for seed in 1 4242; do
        digest=()
        for tree in "$base" "$repo"; do
            digest+=("$(cd "$tree" && perfbench/target/release/perfbench --workload "$w" \
                --seed "$seed" --seconds 1 --trace 0 | sed -n 's/^decision digest: //p')")
        done
        pair "perfbench $w seed $seed" "${digest[0]}" "${digest[1]}"
    done
done

echo "== CI serve stream"
for side in base head; do
    if [ "$side" = base ]; then tree=$base; else tree=$repo; fi
    cli="$tree/target/release/sia-cli"
    out="$work/out/$side"
    "$cli" trace-to-stream --trace philly --seed 3 --rate 40 --jobs 200 \
        --gpu-hours-per-gpu 4 --out "$out/stream.jsonl"
    "$cli" serve --seed 3 --quiet \
        --trace-out "$out/serve_trace.jsonl" --trace-format jsonl \
        --audit-out "$out/serve_audit.jsonl" \
        < "$out/stream.jsonl" > "$out/serve_responses.jsonl"
    # The CI job's cut: snapshot after 100 submissions, die at EOF.
    head -n 100 "$out/stream.jsonl" > "$out/first_half.jsonl"
    cut_at=$(tail -n 1 "$out/first_half.jsonl" |
        python3 -c 'import json,sys; print(json.load(sys.stdin)["at"])')
    echo "{\"id\":\"snap\",\"cmd\":\"snapshot\",\"at\":$cut_at,\"path\":\"$out/mid.snap\"}" \
        >> "$out/first_half.jsonl"
    "$cli" serve --seed 3 --quiet < "$out/first_half.jsonl" > /dev/null
    tail -n +101 "$out/stream.jsonl" > "$out/second_half.jsonl"
done
files stream.jsonl
for f in serve_responses.jsonl serve_trace.jsonl serve_audit.jsonl; do files "$f"; done
# Each build resumes each build's snapshot.
for snap in base head; do
    for side in base head; do
        if [ "$side" = base ]; then tree=$base; else tree=$repo; fi
        out="$work/out/$side"
        "$tree/target/release/sia-cli" serve --restore "$work/out/$snap/mid.snap" --quiet \
            --trace-out "$out/resumed_trace_$snap.jsonl" --trace-format jsonl \
            < "$out/second_half.jsonl" > "$out/resumed_responses_$snap.jsonl"
    done
    files "resumed_responses_$snap.jsonl"
    files "resumed_trace_$snap.jsonl"
done

echo "== batch CLI streams"
printf '%s\n' \
    '{"t": 1800.0, "ev": "remove", "gpu_type": "a100", "nodes": 2}' \
    '{"t": 5400.0, "ev": "add", "gpu_type": "a100", "nodes": 2, "gpus_per_node": 8}' \
    > "$work/dynamics.jsonl"
for policy in sia pollux gavel; do
    for variant in plain dynamics physical; do
        case $variant in
            plain) extra=() ;;
            dynamics) extra=(--dynamics "$work/dynamics.jsonl") ;;
            physical) extra=(--trace physical) ;;
        esac
        run="$policy-$variant"
        for side in base head; do
            if [ "$side" = base ]; then tree=$base; else tree=$repo; fi
            cli="$tree/target/release/sia-cli"
            out="$work/out/$side"
            "$cli" --seed 3 --policy "$policy" ${extra[@]+"${extra[@]}"} --quiet --json \
                --trace-out "$out/raw_trace.jsonl" --trace-format jsonl \
                --audit-out "$out/raw_audit.jsonl" | zero_wall_clock > "$out/$run.summary.json"
            zero_wall_clock < "$out/raw_trace.jsonl" > "$out/$run.trace.jsonl"
            zero_wall_clock < "$out/raw_audit.jsonl" > "$out/$run.audit.jsonl"
            "$cli" audit "$out/raw_audit.jsonl" --json --quiet > "$out/$run.audit_report.json"
            "$cli" --seed 3 --policy "$policy" ${extra[@]+"${extra[@]}"} --quiet \
                --trace-out "$out/$run.chrome.json" --trace-format chrome
        done
        for kind in summary.json trace.jsonl audit.jsonl audit_report.json chrome.json; do
            files "$run.$kind"
        done
    done
done

if [ "$status" -ne 0 ]; then
    echo "decision diff: the working tree differs from $base_rev"
else
    echo "decision diff: identical to $base_rev"
fi
exit "$status"
