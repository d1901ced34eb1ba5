#!/usr/bin/env bash
# Multi-node smoke for the routing tier (CI step; runnable locally).
#
# 1. genpop writes one canonical snapshot.
# 2. Two twitterd ring members boot from it (-ring-index 0/1), each holding
#    its owned + replicated account ranges, rate limits off.
# 3. routerd fronts them; loadd sweeps every read-only mix through the
#    router (crawl-heavy, churn-storm, celebrity-hotspot, multinode; 2 s
#    each) exactly as it would a single node (the partition must be
#    invisible — loadd exits non-zero on any non-429 error).
# 4. The router's /metrics is scraped and validated with the repo's own
#    exposition parser (cmd/checkmetrics): both backends healthy, upstream
#    traffic recorded, no ejections on a healthy ring.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null; done
  rm -rf "$work"
  return 0
}
trap cleanup EXIT

node0=127.0.0.1:18110
node1=127.0.0.1:18111
router=127.0.0.1:18112

go build -o "$work/genpop" ./cmd/genpop
go build -o "$work/twitterd" ./cmd/twitterd
go build -o "$work/routerd" ./cmd/routerd
go build -o "$work/loadd" ./cmd/loadd
go build -o "$work/checkmetrics" ./cmd/checkmetrics

echo "==> building the canonical population"
"$work/genpop" -followers 4000 -out "$work/pop.gob" >"$work/genpop.log"

echo "==> booting the 2-node ring"
"$work/twitterd" -load "$work/pop.gob" -ring-index 0 -ring-nodes 2 \
  -no-limits -metrics=false -addr "$node0" >"$work/node0.log" 2>&1 &
pids+=($!); disown $!
"$work/twitterd" -load "$work/pop.gob" -ring-index 1 -ring-nodes 2 \
  -no-limits -metrics=false -addr "$node1" >"$work/node1.log" 2>&1 &
pids+=($!); disown $!

wait_ready() { # $1 = addr, $2 = log
  for _ in $(seq 1 150); do
    curl -sf "http://$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  cat "$work/$2"
  echo "$1 never became ready"
  exit 1
}
wait_ready "$node0" node0.log
wait_ready "$node1" node1.log

echo "==> booting routerd in front of the ring"
"$work/routerd" -backends "http://$node0,http://$node1" -addr "$router" \
  >"$work/routerd.log" 2>&1 &
pids+=($!); disown $!
wait_ready "$router" routerd.log

echo "==> sanity: a lookup spanning both ranges through the router"
curl -sf "http://$router/1.1/users/lookup.json?user_id=1,2,3,4,5,6,7,8" >/dev/null

echo "==> sweeping the read-only mixes through the router"
"$work/loadd" -mix crawl-heavy,churn-storm,celebrity-hotspot,multinode -duration 2s \
  -rate 200 -inflight 64 -api "http://$router" -accounts genpop_target -quiet -metrics=false \
  || { cat "$work/routerd.log"; exit 1; }

echo "==> validating the router's scrape with the repo's own parser"
"$work/checkmetrics" -url "http://$router/metrics" \
  'router_backend_healthy=2' \
  'router_ejections_total=0' \
  'router_upstream_seconds>0' \
  'http_requests_total>100'

echo "multinode-smoke OK: 2-node ring behind routerd served every read-only mix clean"
