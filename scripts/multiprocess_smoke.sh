#!/usr/bin/env bash
# Multi-process SMR smoke test: 4 smr_server replica processes + 1
# smr_client process over loopback TCP (net::SocketNetwork), SMOKE_OPS
# (default 100000) mixed put/get/cas ops across 2 shards. It checks that:
#   - the client completes every op (exit 0) across real process
#     boundaries within 120 s, although replica 3 is SIGKILLed 0.4 s into
#     the run (the default op count keeps the client running well past
#     the kill);
#   - the 3 survivors each print their SIGTERM stats dump.
# CI's multiprocess-smoke job runs this against a Release build; locally:
#
#   cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
#   cmake --build build-rel -j --target smr_server smr_client
#   scripts/multiprocess_smoke.sh build-rel
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/tools/smr_server"
CLIENT="$BUILD_DIR/tools/smr_client"
for bin in "$SERVER" "$CLIENT"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR --target smr_server smr_client)" >&2
    exit 2
  fi
done

# Fixed loopback ports in the dynamic range; SO_REUSEADDR on the servers
# makes quick successive runs safe.
BASE_PORT="${SMOKE_BASE_PORT:-7350}"
PEERS="127.0.0.1:$BASE_PORT,127.0.0.1:$((BASE_PORT+1)),127.0.0.1:$((BASE_PORT+2)),127.0.0.1:$((BASE_PORT+3))"
OPS="${SMOKE_OPS:-100000}"
LOGDIR="$(mktemp -d)"
SERVER_PIDS=()

cleanup() {
  kill -TERM "${SERVER_PIDS[@]}" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

echo "== starting 4 smr_server replicas (2 shards) on $PEERS =="
for id in 0 1 2 3; do
  "$SERVER" --id "$id" --n 4 --f 1 --shards 2 --depth 4 --batch 8 \
      --clients 4 --peers "$PEERS" > "$LOGDIR/server$id.log" 2>&1 &
  SERVER_PIDS+=($!)
done
sleep 1

# Kill replica 3 at 0.4 s: n=4, f=1 keeps deciding on the surviving 3,
# which still receive every request.
(
  sleep 0.4
  echo "== killing replica 3 (pid ${SERVER_PIDS[3]}) at 0.4 s =="
  kill -KILL "${SERVER_PIDS[3]}" 2>/dev/null || true
) &
KILLER_PID=$!

echo "== running smr_client: $OPS mixed put/get/cas ops, 2 sessions, 2 shards =="
status=0
"$CLIENT" --peers "$PEERS" --n 4 --f 1 --clients 4 \
    --sessions 2 --window 8 --ops "$OPS" --workload mixed \
    --max-seconds 120 | tee "$LOGDIR/client.log" || status=$?
wait "$KILLER_PID" 2>/dev/null || true

if [ "$status" -ne 0 ]; then
  echo "== FAIL: client did not complete all ops; server logs: =="
  tail -n 40 "$LOGDIR"/server*.log
  exit 1
fi

echo "== stopping surviving replicas (SIGTERM stats dump) =="
kill -TERM "${SERVER_PIDS[0]}" "${SERVER_PIDS[1]}" "${SERVER_PIDS[2]}" 2>/dev/null || true
wait "${SERVER_PIDS[0]}" "${SERVER_PIDS[1]}" "${SERVER_PIDS[2]}" 2>/dev/null || true
SERVER_PIDS=()

# The survivors must have dumped their per-link counters and applied the
# workload; surface the dumps so CI logs show the transport counters.
for id in 0 1 2; do
  if ! grep -q "applied" "$LOGDIR/server$id.log"; then
    echo "== FAIL: replica $id produced no stats dump =="
    cat "$LOGDIR/server$id.log"
    exit 1
  fi
done
echo "== replica 0 stats dump =="
sed -n '/--- smr_server/,$p' "$LOGDIR/server0.log"
echo "== multiprocess smoke: OK ($OPS ops, replica 3 killed at 0.4 s) =="
