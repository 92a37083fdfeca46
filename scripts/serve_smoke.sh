#!/usr/bin/env bash
# End-to-end smoke test for the serving path:
#
#   1. two compiled table3 runs persist their circuits and region covers
#      to two separate artifact directories (and print the batch
#      whole-space metrics);
#   2. mcml-serve merges both directories into one store and answers over
#      TCP;
#   3. a third table3 run under a tiny counting budget (--budget 1,
#      --fallback approx) persists region covers whose circuits never
#      compiled — the server, started with --fallback approx, serves that
#      unit degraded: approximate counts, every reply labeled
#      'approx EPS DELTA';
#   4. one persistent connection (client --stdin) issues accuracy queries
#      for both exact artifacts, stats, a hot reload, a post-reload
#      accuracy query, a degraded-unit accuracy query and the shutdown —
#      every served exact accuracy must reproduce the batch table's
#      Acc(phi) cell exactly (both sides round the same f64 to four
#      decimals), before and after the reload, and the degraded reply
#      must carry the approx label.
#
# Usage: scripts/serve_smoke.sh   (from anywhere; builds in release mode)
set -euo pipefail

cd "$(dirname "$0")/.."

PROPERTY_A=Function    # Property::name() spellings — used in queries and table rows
PROPERTY_B=Reflexive
PROPERTY_C=Transitive  # served degraded: its circuits never fit --budget 1
SCOPE=3
FAMILY=DT

tmp="$(mktemp -d)"
server_pid=""
cleanup() {
  if [[ -n "$server_pid" ]] && kill -0 "$server_pid" 2>/dev/null; then
    kill "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

cargo build --release -p mcml-bench -p mcml-serve

# 1. Warm runs: build and persist one circuit artifact per property, in
# separate directories, to exercise the multi-directory store merge.
batch_acc_for() {
  local property="$1" out="$2"
  awk -v prop="$property" -v fam="$FAMILY" \
    '$1 == prop && $2 == fam { print $7 }' "$out"
}
target/release/table3 --engine compiled --property "$PROPERTY_A" --scope "$SCOPE" \
  --artifact-dir "$tmp/artifacts-a" | tee "$tmp/table3-a.txt"
target/release/table3 --engine compiled --property "$PROPERTY_B" --scope "$SCOPE" \
  --artifact-dir "$tmp/artifacts-b" | tee "$tmp/table3-b.txt"
# A third artifact built under a budget too small to compile anything:
# its covers are persisted without circuits, so only the approx fallback
# can serve it.
target/release/table3 --engine compiled --property "$PROPERTY_C" --scope "$SCOPE" \
  --budget 1 --fallback approx --artifact-dir "$tmp/artifacts-c" \
  | tee "$tmp/table3-c.txt"
batch_acc_a="$(batch_acc_for "$PROPERTY_A" "$tmp/table3-a.txt")"
batch_acc_b="$(batch_acc_for "$PROPERTY_B" "$tmp/table3-b.txt")"
for acc in "$batch_acc_a" "$batch_acc_b"; do
  if [[ -z "$acc" || "$acc" == "-" ]]; then
    echo "smoke: missing Acc(phi) cell in the table output" >&2
    exit 1
  fi
done

# 2. Serve both artifact directories on an ephemeral port; wait for the
# address line. The output file exists before the server starts, so the
# poll never reads a file the backgrounded redirect has not created yet.
: >"$tmp/serve.out"
target/release/mcml-serve serve \
  --artifact-dir "$tmp/artifacts-a" --artifact-dir "$tmp/artifacts-b" \
  --artifact-dir "$tmp/artifacts-c" --fallback approx \
  --addr 127.0.0.1:0 --workers 2 --connections 4 \
  >"$tmp/serve.out" 2>"$tmp/serve.log" &
server_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^listening on //p' "$tmp/serve.out" | head -n 1)"
  [[ -n "$addr" ]] && break
  if ! kill -0 "$server_pid" 2>/dev/null; then
    cat "$tmp/serve.log" >&2
    echo "smoke: server exited before listening" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "$addr" ]]; then
  echo "smoke: server never reported its address" >&2
  exit 1
fi
echo "smoke: server listening on $addr"

# 3. One persistent connection, the whole session: both exact artifacts'
# accuracies, stats, a hot reload, the same accuracy again (the reload
# must not change what is served — the artifacts are unchanged on disk),
# the degraded unit's accuracy, and the shutdown.
target/release/mcml-serve client --addr "$addr" --stdin \
  >"$tmp/session.out" <<EOF
accuracy $PROPERTY_A $SCOPE $FAMILY
accuracy $PROPERTY_B $SCOPE $FAMILY
stats
reload
accuracy $PROPERTY_A $SCOPE $FAMILY
accuracy $PROPERTY_C $SCOPE $FAMILY
shutdown
EOF
mapfile -t replies <"$tmp/session.out"
sed 's/^/smoke: reply: /' "$tmp/session.out"
if [[ "${#replies[@]}" -ne 7 ]]; then
  echo "smoke: expected 7 replies, got ${#replies[@]}" >&2
  exit 1
fi

check_acc() {
  local reply="$1" batch="$2" label="$3"
  local served
  served="$(printf '%s\n' "$reply" | awk '$1 == "ok" { printf "%.4f", $6 }')"
  if [[ -z "$served" ]]; then
    echo "smoke: $label accuracy query failed: $reply" >&2
    exit 1
  fi
  if [[ "$served" != "$batch" ]]; then
    echo "smoke: $label served Acc(phi) $served != batch $batch" >&2
    exit 1
  fi
  echo "smoke: $label served Acc(phi) $served matches the batch table"
}
check_acc "${replies[0]}" "$batch_acc_a" "$PROPERTY_A"
check_acc "${replies[1]}" "$batch_acc_b" "$PROPERTY_B"
case "${replies[2]}" in
  "ok queries 2 degraded "*) ;;
  *) echo "smoke: unexpected stats reply: ${replies[2]}" >&2; exit 1 ;;
esac
if [[ "${replies[3]}" != "ok reloaded generation 1 units 3" ]]; then
  echo "smoke: unexpected reload reply: ${replies[3]}" >&2
  exit 1
fi
check_acc "${replies[4]}" "$batch_acc_a" "post-reload $PROPERTY_A"
if [[ "${replies[4]}" != "${replies[0]}" ]]; then
  echo "smoke: reload changed the served reply for unchanged artifacts" >&2
  exit 1
fi
# The circuit-less unit answers, degraded and labeled.
case "${replies[5]}" in
  ok*" approx "*) echo "smoke: degraded $PROPERTY_C reply carries the approx label" ;;
  *) echo "smoke: expected a labeled degraded reply, got: ${replies[5]}" >&2; exit 1 ;;
esac
if [[ "${replies[6]}" != "ok bye" ]]; then
  echo "smoke: unexpected shutdown reply: ${replies[6]}" >&2
  exit 1
fi

wait "$server_pid"
server_pid=""
echo "smoke: OK"
