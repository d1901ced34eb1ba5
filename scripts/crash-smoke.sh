#!/usr/bin/env bash
# Crash-recovery smoke for the durability plane (CI step; runnable locally).
#
# 1. genpop builds a population straight into a WAL directory and evolves
#    it day after day (organic growth, purchase bursts, purge sweeps,
#    compaction every 3000 records) until it is SIGKILLed — a real kill
#    during real writes. The kill waits until the directory holds a
#    snapshot and a later segment, so recovery replays snapshot + tail.
# 2. twitterd boots on the surviving WAL directory, recovers, and its served
#    state (genpop_target's users/show + a full follower-page walk) is
#    captured.
# 3. twitterd itself is hard-killed and re-booted; the capture is repeated.
# 4. The two captures must be byte-identical: recovery is deterministic and
#    the hard kill lost nothing the first boot had acknowledged to clients.
# 5. The second daemon is stopped the polite way: SIGTERM must drain, seal
#    the WAL segment and exit 0 within 5 s; a third boot must report no torn
#    tail and serve the same bytes again.
# 6. The import path: genpop -out writes a population file, twitterd
#    imports it into a fresh WAL directory (-wal-dir + -load) and must serve
#    what a plain -load serves; after a SIGKILL it re-boots without -load
#    and serves the same bytes; a -load boot on the now-used directory must
#    exit non-zero with the refusal.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
genpop_pid=""
daemon_pid=""
cleanup() {
  [ -n "$genpop_pid" ] && kill -9 "$genpop_pid" 2>/dev/null
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null
  rm -rf "$work"
  return 0
}
trap cleanup EXIT
waldir="$work/wal"
addr=127.0.0.1:18099

go build -o "$work/genpop" ./cmd/genpop
go build -o "$work/twitterd" ./cmd/twitterd

# snapshot_and_tail succeeds when the WAL dir holds a snapshot and a later
# segment with records past its 20-byte header, so recovery must load the
# snapshot and replay a tail. Snapshot and segment names carry fixed-width
# hex LSNs, so they compare as strings.
snapshot_and_tail() {
  local snap seg name
  snap=$(cd "$waldir" 2>/dev/null && ls snap-*.gob 2>/dev/null | sort | tail -1 || true)
  [ -n "$snap" ] || return 1
  for seg in "$waldir"/wal-*.log; do
    name=${seg##*/}
    if [[ "${name:4:16}" > "${snap:5:16}" ]] && [ "$(wc -c <"$seg")" -gt 20 ]; then
      return 0
    fi
  done
  return 1
}

echo "==> evolving a WAL-backed population (to be killed mid-evolution)"
# -days is far more than the run reaches: genpop is still evolving when
# the kill lands.
"$work/genpop" -followers 2000 -wal-dir "$waldir" -fsync interval -compact-every 3000 \
  -days 100000 -daily-growth 50 -burst 5:400,10:400 -purge 7:0.25,12:0.25 \
  >"$work/genpop.log" 2>&1 &
genpop_pid=$!
# Let the evolution run through several compactions, then strike while
# writes are in flight. Each check freezes genpop (SIGSTOP) so the files
# cannot move between the check and the kill: right after a compaction the
# fresh segment is still empty, and a kill then would replay no tail.
sleep 4
killed=""
for _ in $(seq 1 200); do
  kill -0 "$genpop_pid" 2>/dev/null || { cat "$work/genpop.log"; echo "genpop exited before the kill"; exit 1; }
  kill -STOP "$genpop_pid"
  if snapshot_and_tail; then
    kill -9 "$genpop_pid"
    killed=1
    break
  fi
  kill -CONT "$genpop_pid"
  sleep 0.05
done
[ -n "$killed" ] || { cat "$work/genpop.log"; ls -l "$waldir"; echo "no snapshot with a later non-empty segment within 10 s; recovery would not replay snapshot + tail"; exit 1; }
wait "$genpop_pid" 2>/dev/null || true
genpop_pid=""
echo "    SIGKILLed genpop; WAL dir: $(ls "$waldir" | tr '\n' ' ')"

capture() { # $1 = output file
  python3 - "http://$addr" "$work/$1" <<'EOF'
import json, sys, urllib.request

base, out = sys.argv[1], sys.argv[2]
def get(path):
    req = urllib.request.Request(base + path, headers={"Authorization": "Bearer smoke"})
    with urllib.request.urlopen(req, timeout=10) as r:
        return json.load(r)

state = {}
for name in ("genpop_target",):
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

boot_and_capture() { # $1 = capture file, $2 = boot log, then twitterd's store flags (default: -wal-dir "$waldir")
  local out=$1 log=$2
  shift 2
  [ $# -gt 0 ] || set -- -wal-dir "$waldir"
  "$work/twitterd" -addr "$addr" "$@" -metrics=false >"$work/$log" 2>&1 &
  daemon_pid=$!
  up=""
  for _ in $(seq 1 150); do
    if curl -sf -H 'Authorization: Bearer probe' \
        "http://$addr/1.1/users/show.json?screen_name=genpop_target" >/dev/null 2>&1; then
      up=1; break
    fi
    kill -0 "$daemon_pid" 2>/dev/null || { cat "$work/$log"; echo "twitterd died during boot"; exit 1; }
    sleep 0.2
  done
  [ -n "$up" ] || { cat "$work/$log"; echo "twitterd never became ready"; exit 1; }
  capture "$out"
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

echo "==> import: genpop -out, then twitterd imports the file into a fresh WAL dir"
"$work/genpop" -followers 2000 -days 14 -burst 5:400 -purge 7:0.25 -out "$work/pop.gob" >"$work/genpop-out.log" 2>&1 ||
  { cat "$work/genpop-out.log"; echo "genpop -out failed"; exit 1; }
boot_and_capture plain.json plain.log -load "$work/pop.gob"
hard_kill
waldir="$work/wal-import"
boot_and_capture import.json import1.log -wal-dir "$waldir" -load "$work/pop.gob"
grep -m1 '^wal:' "$work/import1.log" || true
diff -u "$work/plain.json" "$work/import.json"
echo "==> SIGKILLing the importing daemon; re-boot without -load"
hard_kill
boot_and_capture reimport.json import2.log
grep -m1 '^wal:' "$work/import2.log" || true
hard_kill
diff -u "$work/import.json" "$work/reimport.json"

echo "==> a -load boot on the used WAL dir must refuse"
status=0
timeout 30 "$work/twitterd" -addr "$addr" -wal-dir "$waldir" -load "$work/pop.gob" -metrics=false \
  >"$work/import3.log" 2>&1 || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ] || ! grep -q 'refusing to import' "$work/import3.log"; then
  cat "$work/import3.log"; echo "a -load boot over existing WAL state exited $status without the refusal"; exit 1
fi
echo "crash-smoke OK: genpop_target's users/show and every follower page identical across SIGKILL + recovery, SIGTERM + reboot, and a seeded import + SIGKILL + reboot"
