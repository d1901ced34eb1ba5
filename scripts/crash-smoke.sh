#!/usr/bin/env bash
# Crash-recovery smoke for the durability plane (CI step; runnable locally).
#
# 1. loadd churns a WAL-backed platform (churn-storm mix) and is SIGKILLed
#    mid-run — a real kill during real writes.
# 2. twitterd boots on the surviving WAL directory, recovers, and its served
#    state (users/show + a full follower-page walk) is captured.
# 3. twitterd itself is hard-killed and re-booted; the capture is repeated.
# 4. The two captures must be byte-identical: recovery is deterministic and
#    the hard kill lost nothing the first boot had acknowledged to clients.
# 5. The second daemon is stopped the polite way: SIGTERM must drain, seal
#    the WAL segment and exit 0 within 5 s; a third boot must report no torn
#    tail and serve the same bytes again.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null
  rm -rf "$work"
  return 0
}
trap cleanup EXIT
waldir="$work/wal"
addr=127.0.0.1:18099

go build -o "$work/loadd" ./cmd/loadd
go build -o "$work/twitterd" ./cmd/twitterd

echo "==> churning a WAL-backed platform (to be killed mid-run)"
"$work/loadd" -mix churn-storm -duration 120s -rate 100 -inflight 64 \
  -targets 2 -followers 2000 -quiet -metrics=false \
  -wal-dir "$waldir" -fsync interval -compact-every 3000 \
  >"$work/loadd.log" 2>&1 &
loadd_pid=$!
# Wait until the log shows real traffic (the population build plus churn),
# then strike while writes are in flight.
for _ in $(seq 1 240); do
  kill -0 "$loadd_pid" 2>/dev/null || { cat "$work/loadd.log"; echo "loadd exited before the kill"; exit 1; }
  # The || true keeps set -e/pipefail from aborting before loadd has
  # created the WAL directory (du fails on a missing path).
  size=$(du -sb "$waldir" 2>/dev/null | cut -f1 || true)
  [ "${size:-0}" -gt 300000 ] && break
  sleep 0.5
done
sleep 2
kill -9 "$loadd_pid" 2>/dev/null || { cat "$work/loadd.log"; echo "loadd exited before the kill"; exit 1; }
wait "$loadd_pid" 2>/dev/null || true
echo "    SIGKILLed loadd; WAL dir: $(ls "$waldir" | tr '\n' ' ')"

capture() { # $1 = output file
  python3 - "http://$addr" "$work/$1" <<'EOF'
import json, sys, urllib.request

base, out = sys.argv[1], sys.argv[2]
def get(path):
    req = urllib.request.Request(base + path, headers={"Authorization": "Bearer smoke"})
    with urllib.request.urlopen(req, timeout=10) as r:
        return json.load(r)

state = {}
for name in ("load_t0", "load_t1"):
    state[name] = {
        "user": get("/1.1/users/show.json?screen_name=" + name),
        "follower_pages": [],
    }
    cursor = -1
    while cursor != 0:
        page = get(f"/1.1/followers/ids.json?screen_name={name}&cursor={cursor}")
        state[name]["follower_pages"].append(page["ids"])
        cursor = page["next_cursor"]
with open(out, "w") as f:
    json.dump(state, f, indent=1, sort_keys=True)
EOF
}

boot_and_capture() { # $1 = capture file, $2 = boot log
  "$work/twitterd" -addr "$addr" -wal-dir "$waldir" -metrics=false \
    >"$work/$2" 2>&1 &
  daemon_pid=$!
  up=""
  for _ in $(seq 1 150); do
    if curl -sf -H 'Authorization: Bearer probe' \
        "http://$addr/1.1/users/show.json?screen_name=load_t0" >/dev/null 2>&1; then
      up=1; break
    fi
    kill -0 "$daemon_pid" 2>/dev/null || { cat "$work/$2"; echo "twitterd died during boot"; exit 1; }
    sleep 0.2
  done
  [ -n "$up" ] || { cat "$work/$2"; echo "twitterd never became ready"; exit 1; }
  capture "$1"
}

hard_kill() { # SIGKILL the daemon and wait until it is gone
  disown "$daemon_pid" # keeps bash's "Killed" job notice out of the log
  kill -9 "$daemon_pid" 2>/dev/null || true
  while kill -0 "$daemon_pid" 2>/dev/null; do sleep 0.05; done
  daemon_pid=""
}

echo "==> boot 1: recover the acknowledged state, capture served views"
boot_and_capture pre.json boot1.log
grep -m1 '^wal:' "$work/boot1.log" || true

echo "==> SIGKILLing the daemon"
hard_kill

echo "==> boot 2: recover again, capture again"
boot_and_capture post.json boot2.log
grep -m1 '^wal:' "$work/boot2.log" || true

echo "==> diffing served state across the hard kill"
diff -u "$work/pre.json" "$work/post.json"

echo "==> SIGTERM: the daemon must drain, seal its segment and exit 0 within 5 s"
kill -TERM "$daemon_pid"
for _ in $(seq 1 100); do
  kill -0 "$daemon_pid" 2>/dev/null || break
  sleep 0.05
done
if kill -0 "$daemon_pid" 2>/dev/null; then
  cat "$work/boot2.log"; echo "twitterd still running 5 s after SIGTERM"; exit 1
fi
status=0
wait "$daemon_pid" || status=$?
daemon_pid=""
[ "$status" -eq 0 ] || { cat "$work/boot2.log"; echo "twitterd exited $status on SIGTERM, want 0"; exit 1; }

echo "==> boot 3: a stopped daemon leaves nothing to repair"
boot_and_capture term.json boot3.log
grep -m1 '^wal:' "$work/boot3.log"
if grep -m1 '^wal:' "$work/boot3.log" | grep -q 'torn tail'; then
  echo "boot after a clean SIGTERM stop found a torn tail"; exit 1
fi
hard_kill
diff -u "$work/post.json" "$work/term.json"
echo "crash-smoke OK: users/show and every follower page identical across SIGKILL + recovery and SIGTERM + reboot"
