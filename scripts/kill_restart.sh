#!/usr/bin/env bash
# Kill-and-restart integration test for the crash-safe checkpoint file:
# start a checkpointed training run, kill -9 it mid-flight, restart it,
# and assert (a) the restart recovers from the checkpoint (or starts
# cleanly from scratch if the kill landed before the first one), (b) the
# run completes, and (c) the state directory holds a checkpoint and no
# checkpoint.tmp. Then corrupt the checkpoint and assert the next run
# rolls back to checkpoint.prev and completes instead of crashing.
#
# Usage: scripts/kill_restart.sh [workdir]
set -euo pipefail

WORKDIR="${1:-$(mktemp -d)}"
STATE="$WORKDIR/state"
LOG1="$WORKDIR/run1.log"
LOG2="$WORKDIR/run2.log"
BIN="$WORKDIR/capnn-train"
# Small run: epochs are short enough that several checkpoints commit
# within the kill window, long enough that the kill lands mid-run.
MODEL="${MODEL:-cifar10}"
EPOCHS="${EPOCHS:-6}"
KILL_WINDOW="${KILL_WINDOW:-120}"

echo "kill_restart: workdir $WORKDIR"
go build -o "$BIN" ./cmd/capnn-train

echo "kill_restart: phase 1 — start training, kill -9 right after the first checkpoint commit"
"$BIN" -model "$MODEL" -epochs "$EPOCHS" -state "$STATE" >"$LOG1" 2>&1 &
PID=$!
# Poll for the first durable checkpoint so the kill deterministically
# lands mid-run with a recoverable checkpoint on disk.
for _ in $(seq $((KILL_WINDOW * 5))); do
    if ! kill -0 "$PID" 2>/dev/null; then
        break
    fi
    if grep -q "committed checkpoint" "$LOG1" 2>/dev/null; then
        break
    fi
    sleep 0.2
done
if kill -0 "$PID" 2>/dev/null; then
    kill -9 "$PID"
    wait "$PID" 2>/dev/null || true
    echo "kill_restart: killed pid $PID mid-run"
else
    wait "$PID"
    echo "kill_restart: run finished before it could be killed; restart must be a no-op recovery"
fi
sed 's/^/  run1| /' "$LOG1" | tail -5

echo "kill_restart: phase 2 — restart and run to completion"
"$BIN" -model "$MODEL" -epochs "$EPOCHS" -state "$STATE" >"$LOG2" 2>&1
sed 's/^/  run2| /' "$LOG2" | tail -5

grep -q "ready in" "$LOG2" || { echo "kill_restart: FAIL: restart did not complete"; exit 1; }
if grep -q "committed checkpoint" "$LOG1"; then
    # At least one checkpoint was durable before the kill: the restart
    # must have recovered it rather than restarted from scratch.
    grep -q "recovered checkpoint" "$LOG2" || {
        echo "kill_restart: FAIL: checkpoints existed but restart did not recover"; exit 1; }
else
    echo "kill_restart: note: kill landed before the first commit; restart trained from scratch (allowed)"
fi
[ -f "$STATE/checkpoint" ] || { echo "kill_restart: FAIL: no checkpoint in $STATE"; exit 1; }
# A completed run leaves no half-written checkpoint behind.
if [ -e "$STATE/checkpoint.tmp" ]; then
    echo "kill_restart: FAIL: checkpoint.tmp survived a completed run"; exit 1
fi

echo "kill_restart: phase 3 — corrupt the checkpoint, expect a rollback to checkpoint.prev, not a crash"
# Overwrite body bytes past the 20-byte header; the body CRC must catch it.
printf 'garbage' | dd of="$STATE/checkpoint" bs=1 seek=100 conv=notrunc 2>/dev/null
LOG3="$WORKDIR/run3.log"
"$BIN" -model "$MODEL" -epochs "$EPOCHS" -state "$STATE" >"$LOG3" 2>&1
sed 's/^/  run3| /' "$LOG3" | tail -5
grep -q "ready in" "$LOG3" || { echo "kill_restart: FAIL: corrupted checkpoint crashed the restart"; exit 1; }
grep -q "rolling back to checkpoint.prev" "$LOG3" || { echo "kill_restart: FAIL: corrupt checkpoint did not roll back to checkpoint.prev"; exit 1; }

echo "kill_restart: PASS"
