#!/usr/bin/env bash
# Chaos harness: loop kill -9 against a live she_server mid-ingest and
# assert zero-loss, exactly-once delivery end to end.
#
# Default mode — restart chaos.  Two passes over the identical
# deterministic workload:
#
#   1. reference — one server, no faults, clean shutdown; final query
#      answers are recorded.
#   2. chaos — the same inserts, but every iteration the server is
#      kill -9'd while a bulk insert is in flight, then restarted with
#      --resume.  The surviving she_tool invocation (one client identity,
#      monotonic sequence numbers) rides its reconnect backoff through
#      the outage; the write-ahead backlog log replays accepted-but-
#      undrained frames and its sequence table absorbs the client's
#      lost-ack replays.  One iteration additionally arms an injected
#      torn WAL write, which the client absorbs as a retryable server
#      error.  After the final clean shutdown, `she_tool verify` must
#      find the pass's checkpoints and WALs clean.
#
# --failover mode — node-death chaos.  A primary and a hot standby
# (--role standby --follow) run side by side; a failover she_tool client
# (--endpoints primary,standby) streams into pipelines covering all five
# estimators.  Mid-stream the primary is kill -9'd, the standby is
# promoted, and the client's seq-tagged replay rides onto it.  The
# primary is SIGSTOPped just before the kill so the requests in flight
# at the moment of death are exactly the un-acked ones the client
# replays — the kill lands mid-request without racing the asynchronous
# replication ship of already-acknowledged frames.
#
# In both modes the final answers must be byte-identical to a clean
# single-node reference pass — losing or double-counting even one item
# shifts the estimates and fails the diff.
#
# Environment: SERVER, TOOL, PORT, PORT2, ITERS override the defaults.
set -euo pipefail

SERVER=${SERVER:-./build/src/server/she_server}
TOOL=${TOOL:-./build/tools/she_tool}
PORT=${PORT:-7272}
PORT2=${PORT2:-$((PORT + 1))}
ITERS=${ITERS:-4}

# Per-iteration workload.  Keys are deterministic (key-base + i mod
# distinct), so both passes insert the identical sequence and the final
# window state is a pure function of it.
COUNT=600000
DISTINCT=20000
SPEC="window=16K memory=256K shards=2 producers=2 queue=1024 seed=11"
# Durable ingest: group-committed fsync with a small interval so the
# insert stream is slow enough for the kill to land mid-flight.
WAL_ARGS="--wal-mode fsync --wal-fsync-bytes 16384"

WORK=$(mktemp -d)
SRV=0
PRIM=0
STBY=0
cleanup() {
  for p in "$SRV" "$PRIM" "$STBY"; do
    [ "$p" -ne 0 ] && kill -9 "$p" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

CLIENT="$TOOL client --port $PORT"
# The chaos-side client must outlive server restarts: generous io
# deadline, enough retries that capped exponential backoff (2 s) spans
# the longest resume.
RCLIENT="$CLIENT --timeout-ms 30000 --retries 400"

boot() { # boot <checkpoint-root> [extra she_server args...]
  local root=$1
  shift
  "$SERVER" --port "$PORT" --http-port -1 --checkpoint-root "$root" \
    $WAL_ARGS "$@" &
  SRV=$!
  for _ in $(seq 1 150); do
    if $CLIENT --op ping >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "chaos: server on port $PORT failed to come up" >&2
  return 1
}

run_inserts() { # run_inserts <client-prefix> <pass-dir> <kill|no-kill> <iter>
  local cl=$1 dir=$2 kill_mode=$3 it=$4
  if [ "$kill_mode" = kill ]; then
    $cl --op bulk --name flows --count $COUNT --distinct $DISTINCT \
      --key-base $((it * 1000000)) >"$dir/bulk-$it.txt" &
    local bulk=$!
    # Let the stream get going, then yank the server mid-flight.
    sleep 0.3
    kill -9 "$SRV" 2>/dev/null || true
    wait "$SRV" 2>/dev/null || true
    SRV=0
    local inject=""
    if [ "$it" -eq 2 ]; then
      # One restart also tears the first post-resume WAL append; the
      # client sees a typed server error and replays the frame.
      inject="--inject wal-torn"
    fi
    # shellcheck disable=SC2086  # inject is deliberately word-split
    boot "$dir/ckpt" --resume $inject
    wait "$bulk"
  else
    $cl --op bulk --name flows --count $COUNT --distinct $DISTINCT \
      --key-base $((it * 1000000)) >"$dir/bulk-$it.txt"
  fi
  grep -q "accepted $COUNT/$COUNT" "$dir/bulk-$it.txt"
}

record_answers() { # record_answers <out-file>
  $CLIENT --op flush --name flows
  {
    $CLIENT --op query --name flows --type cardinality
    # Keys from the final iteration's range are still in the window.
    $CLIENT --op query --name flows --type frequency \
      --key $((ITERS * 1000000 + 17))
    $CLIENT --op query --name flows --type frequency \
      --key $((ITERS * 1000000 + 4242))
  } >"$1"
}

# ----------------------------- failover mode -------------------------------

# Two pipelines cover all five estimators: "a" = BF + BM + CM + MH
# (similarity), "b" = HLL + MH.  wal=async makes them replicated state —
# pipelines without a WAL only replicate DDL.  similarity requires
# shards=1 (jaccard compares lock-step minhash signatures).
SPEC_A="window=16K memory=256K shards=1 wal=async similarity checkpoint-every=4096 seed=11"
SPEC_B="window=16K memory=128K shards=1 wal=async hll similarity seed=11"
FN1=300000   # items per pipeline before the kill
FN2=200000   # items per pipeline ridden across the failover
FDISTINCT=20000

boot_at() { # boot_at <port> <checkpoint-root> [extra args...]; sets BOOT_PID
  local port=$1 root=$2
  shift 2
  "$SERVER" --port "$port" --http-port -1 --checkpoint-root "$root" "$@" &
  BOOT_PID=$!
  for _ in $(seq 1 150); do
    if $TOOL client --port "$port" --op ping >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "chaos: server on port $port failed to come up" >&2
  return 1
}

produced_of() { # produced_of <port> <name> — accepted-item count: the
  # she_pipeline_produced_total series of the STATS document, summed
  { $TOOL client --port "$1" --op stats --name "$2" 2>/dev/null || true; } |
    grep -o '"name":"she_pipeline_produced_total"[^}]*}[^}]*' |
    sed -n 's/.*"value":\([0-9][0-9]*\).*/\1/p' |
    awk '{ s += $1; n++ } END { if (n) print s }'
}

wait_caught_up() { # wait_caught_up <name...> — standby holds every item
  local n p s all
  for _ in $(seq 1 200); do
    all=1
    for n in "$@"; do
      p=$(produced_of "$PORT" "$n")
      s=$(produced_of "$PORT2" "$n")
      if [ -z "$p" ] || [ "$p" != "$s" ]; then all=0; break; fi
    done
    [ "$all" -eq 1 ] && return 0
    sleep 0.2
  done
  echo "chaos: standby never caught up with the primary" >&2
  return 1
}

answers_at() { # answers_at <port> <out-file> — all five estimators
  local cl="$TOOL client --port $1"
  $cl --op flush --name a
  $cl --op flush --name b
  {
    $cl --op query --name a --type cardinality
    $cl --op query --name b --type cardinality
    $cl --op query --name a --type topk --k 8
    $cl --op query --name a --type jaccard --other b
    for k in 0 3 17 4242 19999 1048576; do
      $cl --op query --name a --type membership --key "$k"
      $cl --op query --name a --type frequency --key "$k"
      $cl --op query --name b --type frequency --key "$k"
    done
  } >"$2"
}

run_failover() {
  echo "== failover reference pass (single node, no faults) =="
  boot_at "$PORT" "$WORK/ref"
  PRIM=$BOOT_PID
  local cl="$TOOL client --port $PORT"
  $cl --op create --name a --spec "$SPEC_A"
  $cl --op create --name b --spec "$SPEC_B"
  $cl --op bulk --name a --count $FN1 --distinct $FDISTINCT --key-base 0
  $cl --op bulk --name b --count $FN1 --distinct $FDISTINCT --key-base 0
  $cl --op bulk --name a --count $FN2 --distinct $FDISTINCT --key-base 7
  $cl --op bulk --name b --count $FN2 --distinct $FDISTINCT --key-base 7
  answers_at "$PORT" "$WORK/ref-answers.txt"
  $cl --op shutdown
  wait "$PRIM" || true
  PRIM=0
  cat "$WORK/ref-answers.txt"

  echo "== failover pass (kill -9 the primary mid-stream, promote) =="
  boot_at "$PORT" "$WORK/prim"
  PRIM=$BOOT_PID
  boot_at "$PORT2" "$WORK/stby" --role standby --follow "127.0.0.1:$PORT"
  STBY=$BOOT_PID
  local fcl="$TOOL client --endpoints 127.0.0.1:$PORT,127.0.0.1:$PORT2"
  fcl="$fcl --timeout-ms 30000 --retries 400"
  $fcl --op create --name a --spec "$SPEC_A"
  $fcl --op create --name b --spec "$SPEC_B"
  $fcl --op bulk --name a --count $FN1 --distinct $FDISTINCT --key-base 0
  $fcl --op bulk --name b --count $FN1 --distinct $FDISTINCT --key-base 0
  $fcl --op flush --name a
  $fcl --op flush --name b
  wait_caught_up a b

  # Freeze the primary, then start the final bulks: their requests block
  # un-acked in the primary's socket buffers, so the kill -9 provably
  # lands mid-request and the client replays every affected frame.
  kill -STOP "$PRIM"
  $fcl --op bulk --name a --count $FN2 --distinct $FDISTINCT --key-base 7 \
    >"$WORK/bulk-a.txt" &
  local ba=$!
  $fcl --op bulk --name b --count $FN2 --distinct $FDISTINCT --key-base 7 \
    >"$WORK/bulk-b.txt" &
  local bb=$!
  sleep 0.5
  echo "-- kill -9 primary ($PRIM), promote standby --"
  kill -9 "$PRIM"
  wait "$PRIM" 2>/dev/null || true
  PRIM=0
  $TOOL client --port "$PORT2" --op promote
  wait "$ba"
  wait "$bb"
  grep -q "accepted $FN2/$FN2" "$WORK/bulk-a.txt"
  grep -q "accepted $FN2/$FN2" "$WORK/bulk-b.txt"

  answers_at "$PORT2" "$WORK/failover-answers.txt"
  $TOOL client --port "$PORT2" --op shutdown
  wait "$STBY" || true
  STBY=0
  cat "$WORK/failover-answers.txt"

  diff "$WORK/ref-answers.txt" "$WORK/failover-answers.txt"
  echo "chaos: failover mid-stream, final answers byte-identical"
}

if [ "${1:-}" = "--failover" ]; then
  run_failover
  exit 0
fi

echo "== reference pass (no faults) =="
boot "$WORK/ref"
$CLIENT --op create --name flows --spec "$SPEC"
for it in $(seq 1 "$ITERS"); do
  run_inserts "$CLIENT" "$WORK" no-kill "$it"
done
record_answers "$WORK/ref-answers.txt"
$CLIENT --op shutdown
wait "$SRV"
SRV=0
cat "$WORK/ref-answers.txt"

echo "== chaos pass (kill -9 each iteration) =="
boot "$WORK/chaos/ckpt"
$CLIENT --op create --name flows --spec "$SPEC"
for it in $(seq 1 "$ITERS"); do
  echo "-- iteration $it: kill -9 mid-insert --"
  run_inserts "$RCLIENT" "$WORK/chaos" kill "$it"
done
record_answers "$WORK/chaos-answers.txt"
$CLIENT --op shutdown
wait "$SRV"
SRV=0
# Offline scrub of what the chaos pass left on disk, by the scans a resume
# runs: every checkpoint frame and every WAL must verify clean (exit 0).
$TOOL verify --dir "$WORK/chaos/ckpt"
cat "$WORK/chaos-answers.txt"

diff "$WORK/ref-answers.txt" "$WORK/chaos-answers.txt"
echo "chaos: $ITERS kill -9 iterations, final answers byte-identical"
