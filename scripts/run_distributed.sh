#!/usr/bin/env bash
# Launch a real 3-process cloud-bursting run on localhost — one head and two
# workers over TCP — and verify the distributed answer is byte-identical to
# the single-process runtime on the same dataset and split, then check the
# head's event trace decodes through `cloudburst inspect trace`.
#
# Usage: scripts/run_distributed.sh [port]
set -euo pipefail

PORT="${1:-4817}"
ADDR="127.0.0.1:${PORT}"
WORKDIR="$(mktemp -d /tmp/cb-distributed.XXXXXX)"
# Under `set -e` a failing `kill` (no jobs left, or already gone) would
# turn a passing run into a non-zero exit, so the cleanup ignores it.
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

cd "$(dirname "$0")/.."
cargo build --release -p cloudburst-cli
CB=target/release/cloudburst

echo "== generating corpus in $WORKDIR"
"$CB" generate --kind words --out "$WORKDIR/corpus" \
  --files 6 --per-file 20000 --per-chunk 2000 --vocab 2000 --seed 2011
"$CB" organize --store "$WORKDIR/corpus" --unit-bytes 8 --chunk-bytes 16000 \
  --out "$WORKDIR/corpus.grix"

echo "== single-process baseline"
"$CB" run --app wordcount --index "$WORKDIR/corpus.grix" \
  --data "$WORKDIR/corpus" --data2 "$WORKDIR/corpus" --frac-local 0.5 \
  --robj-out "$WORKDIR/single.robj" > "$WORKDIR/single.log"

echo "== head on $ADDR + 2 workers"
"$CB" head --listen "$ADDR" --app wordcount --index "$WORKDIR/corpus.grix" \
  --workers 2 --frac-local 0.5 --robj-out "$WORKDIR/dist.robj" \
  --trace-out "$WORKDIR/head.jsonl" > "$WORKDIR/head.log" 2>&1 &
HEAD_PID=$!

for cluster in 0 1; do
  "$CB" worker --connect "$ADDR" --app wordcount \
    --index "$WORKDIR/corpus.grix" \
    --data "$WORKDIR/corpus" --data2 "$WORKDIR/corpus" --frac-local 0.5 \
    --cluster "$cluster" --cores 2 > "$WORKDIR/worker$cluster.log" 2>&1 &
done

wait "$HEAD_PID"
wait

echo "== head report"
cat "$WORKDIR/head.log"

cmp "$WORKDIR/single.robj" "$WORKDIR/dist.robj"
echo "OK: distributed result is byte-identical to the single-process run"

# The head's trace holds the network kinds; it must decode and validate.
echo "== head trace"
"$CB" inspect trace "$WORKDIR/head.jsonl" > "$WORKDIR/inspect.log"
head -n 1 "$WORKDIR/inspect.log"
grep -q ': VALID ' "$WORKDIR/inspect.log"
grep -q '"ev":"net_sent"' "$WORKDIR/head.jsonl"
grep -q '"ev":"peer_joined"' "$WORKDIR/head.jsonl"
echo "OK: the head's trace is VALID and carries net_sent and peer_joined events"
