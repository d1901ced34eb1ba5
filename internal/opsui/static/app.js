/* ops dashboard: polls /metrics.json (and /v1/alerts when present) and
   renders tiles, latency quantiles and the alert feed.
   Counters are turned into rates by differencing consecutive polls. */
"use strict";

const POLL_MS = 2000;
const SPARK_POINTS = 150;

let prevFlat = null;
let prevAt = 0;
let rateHistory = [];
let alertsAvailable = true;

const $ = (sel) => document.querySelector(sel);

/* ---- helpers ---------------------------------------------------------- */

function seriesKey(name, labels) {
  const ls = Object.entries(labels || {}).sort().map(([k, v]) => k + "=" + v);
  return name + "{" + ls.join(",") + "}";
}

/* flatten a /metrics.json document into key -> {name, labels, type, ...} */
function flatten(doc) {
  const flat = new Map();
  for (const fam of doc.families || []) {
    for (const s of fam.series || []) {
      flat.set(seriesKey(fam.name, s.labels), {
        name: fam.name, type: fam.type, labels: s.labels || {}, ...s,
      });
    }
  }
  return flat;
}

function fmtDur(seconds) {
  if (seconds == null) return "–";
  if (seconds === 0) return "0";
  if (seconds < 1e-3) return (seconds * 1e6).toFixed(0) + "µs";
  if (seconds < 1) return (seconds * 1e3).toFixed(2) + "ms";
  return seconds.toFixed(2) + "s";
}

function fmtCount(n) {
  if (n == null) return "–";
  if (n >= 1e6) return (n / 1e6).toFixed(1) + "M";
  if (n >= 1e4) return (n / 1e3).toFixed(1) + "k";
  return String(Math.round(n));
}

function fmtBytes(n) {
  if (n == null) return "–";
  if (n >= 1 << 30) return (n / (1 << 30)).toFixed(1) + "GiB";
  if (n >= 1 << 20) return (n / (1 << 20)).toFixed(1) + "MiB";
  if (n >= 1 << 10) return (n / (1 << 10)).toFixed(1) + "KiB";
  return Math.round(n) + "B";
}

function fmtRate(r) {
  if (r == null) return "–";
  if (r >= 100) return r.toFixed(0) + "/s";
  if (r >= 1) return r.toFixed(1) + "/s";
  return r.toFixed(2) + "/s";
}

/* rate of a counter/histogram-count series between polls */
function rateOf(flat, key, dt) {
  if (!prevFlat || dt <= 0) return null;
  const cur = flat.get(key), prev = prevFlat.get(key);
  if (!cur || !prev) return null;
  const a = cur.count != null ? cur.count : cur.value;
  const b = prev.count != null ? prev.count : prev.value;
  if (a == null || b == null || a < b) return null;
  return (a - b) / dt;
}

function sumOver(flat, name, field) {
  let total = 0, seen = false;
  for (const s of flat.values()) {
    if (s.name === name && s[field] != null) { total += s[field]; seen = true; }
  }
  return seen ? total : null;
}

/* ---- render ----------------------------------------------------------- */

function renderTiles(flat, dt) {
  const tiles = [];

  let reqRate = 0, sawReq = false;
  for (const [key, s] of flat) {
    if (s.name === "http_requests_total") {
      sawReq = true;
      const r = rateOf(flat, key, dt);
      if (r != null) reqRate += r;
    }
  }
  if (sawReq) tiles.push(["requests", fmtRate(reqRate)]);
  rateHistory.push(reqRate);
  if (rateHistory.length > SPARK_POINTS) rateHistory.shift();

  const inflight = sumOver(flat, "http_requests_in_flight", "value");
  if (inflight != null) tiles.push(["in flight", fmtCount(inflight)]);

  const depth = sumOver(flat, "auditd_queue_depth", "value");
  if (depth != null) {
    const cap = sumOver(flat, "auditd_queue_capacity", "value");
    tiles.push(["queue depth", fmtCount(depth) + (cap ? ` <small>/ ${fmtCount(cap)}</small>` : "")]);
  }

  const watch = sumOver(flat, "monitord_watchlist_size", "value");
  if (watch != null) tiles.push(["watchlist", fmtCount(watch)]);

  const alerts = sumOver(flat, "monitord_alerts_total", "value");
  if (alerts != null) tiles.push(["alerts raised", fmtCount(alerts)]);

  const throttled = sumOver(flat, "ratelimit_throttled_total", "value");
  if (throttled != null && throttled > 0) tiles.push(["throttled", fmtCount(throttled)]);

  /* routing tier: present only when the scrape is a routerd */
  let backendsUp = 0, backendsTotal = 0;
  for (const s of flat.values()) {
    if (s.name === "router_backend_healthy" && s.value != null) {
      backendsTotal++;
      backendsUp += s.value;
    }
  }
  if (backendsTotal > 0) {
    tiles.push(["backends up", `${fmtCount(backendsUp)} <small>/ ${fmtCount(backendsTotal)}</small>`]);
    let hedgeRate = 0;
    for (const [key, s] of flat) {
      if (s.name === "router_hedges_total") {
        const r = rateOf(flat, key, dt);
        if (r != null) hedgeRate += r;
      }
    }
    const hedges = sumOver(flat, "router_hedges_total", "value");
    const hedgeWins = sumOver(flat, "router_hedge_wins_total", "value");
    if (hedges != null) {
      tiles.push(["hedges", fmtRate(hedgeRate) +
        (hedgeWins != null ? ` <small>(${fmtCount(hedgeWins)} won)</small>` : "")]);
    }
    const failovers = sumOver(flat, "router_failovers_total", "value");
    if (failovers != null && failovers > 0) tiles.push(["failovers", fmtCount(failovers)]);
    const ejections = sumOver(flat, "router_ejections_total", "value");
    if (ejections != null && ejections > 0) {
      const readmissions = sumOver(flat, "router_readmissions_total", "value");
      tiles.push(["ejections", fmtCount(ejections) +
        (readmissions != null ? ` <small>(${fmtCount(readmissions)} back)</small>` : "")]);
    }
  }

  /* durability plane: present only when the store runs on a WAL */
  let walRate = 0, walTotal = null;
  for (const [key, s] of flat) {
    if (s.name === "wal_records_total") {
      walTotal = (walTotal || 0) + (s.value || 0);
      const r = rateOf(flat, key, dt);
      if (r != null) walRate += r;
    }
  }
  if (walTotal != null) {
    tiles.push(["wal appends", fmtRate(walRate) + ` <small>(${fmtCount(walTotal)})</small>`]);
    const logBytes = sumOver(flat, "wal_log_bytes", "value");
    const snapBytes = sumOver(flat, "wal_snapshot_bytes", "value");
    if (logBytes != null) {
      tiles.push(["wal on disk", fmtBytes(logBytes) +
        (snapBytes != null ? ` <small>+ ${fmtBytes(snapBytes)} snap</small>` : "")]);
    }
    const compactions = sumOver(flat, "wal_compactions_total", "value");
    if (compactions != null) tiles.push(["compactions", fmtCount(compactions)]);
    const recovered = sumOver(flat, "wal_recovery_records", "value");
    const recSecs = sumOver(flat, "wal_recovery_seconds", "value");
    if (recovered != null) {
      tiles.push(["recovered", fmtCount(recovered) +
        (recSecs != null ? ` <small>in ${fmtDur(recSecs)}</small>` : "")]);
    }
  }

  $("#tiles").innerHTML = tiles.map(([label, value]) =>
    `<div class="tile"><div class="label">${label}</div><div class="value">${value}</div></div>`
  ).join("");
}

function renderSpark() {
  const canvas = $("#spark");
  const ctx = canvas.getContext("2d");
  const w = canvas.width, h = canvas.height;
  ctx.clearRect(0, 0, w, h);
  if (rateHistory.length < 2) return;
  const peak = Math.max(...rateHistory, 1);
  const step = w / (SPARK_POINTS - 1);
  ctx.beginPath();
  rateHistory.forEach((v, i) => {
    const x = i * step, y = h - 4 - (v / peak) * (h - 12);
    i === 0 ? ctx.moveTo(x, y) : ctx.lineTo(x, y);
  });
  ctx.strokeStyle = "#4cc2ff";
  ctx.lineWidth = 1.5;
  ctx.stroke();
  ctx.lineTo((rateHistory.length - 1) * step, h);
  ctx.lineTo(0, h);
  ctx.closePath();
  ctx.fillStyle = "rgba(76,194,255,.12)";
  ctx.fill();
  ctx.fillStyle = "#7d8794";
  ctx.font = "11px monospace";
  ctx.fillText("peak " + fmtRate(peak), 6, 14);
}

const HIST_LABELS = { http_request_duration_seconds: "http", loadgen_request_duration_seconds: "loadgen" };

function renderLatency(flat, dt) {
  const rows = [];
  for (const [key, s] of flat) {
    if (s.type !== "histogram") continue;
    const kind = HIST_LABELS[s.name] || s.name.replace(/_seconds$/, "");
    const plane = s.labels.plane || s.labels.mix || "";
    const endpoint = s.labels.endpoint || "(all)";
    rows.push({
      kind, plane, endpoint,
      count: s.count, rate: rateOf(flat, key, dt),
      p50: s.p50, p90: s.p90, p99: s.p99, max: s.max,
    });
  }
  rows.sort((a, b) => (b.count || 0) - (a.count || 0));
  const body = rows.map(r => `<tr>
    <td>${r.kind}${r.plane ? ` <span class="plane">${r.plane}</span>` : ""}</td>
    <td>${r.endpoint}</td>
    <td class="num">${fmtCount(r.count)}</td>
    <td class="num">${fmtRate(r.rate)}</td>
    <td class="num">${fmtDur(r.p50)}</td>
    <td class="num">${fmtDur(r.p90)}</td>
    <td class="num ${r.p99 > 0.5 ? "hot" : ""}">${fmtDur(r.p99)}</td>
    <td class="num">${fmtDur(r.max)}</td>
  </tr>`).join("");
  $("#latency tbody").innerHTML = body ||
    `<tr><td colspan="8" class="empty">no latency series yet</td></tr>`;
}

async function renderAlerts() {
  if (!alertsAvailable) return;
  try {
    const resp = await fetch("/v1/alerts", { cache: "no-store" });
    if (!resp.ok) { alertsAvailable = resp.status !== 404; return; }
    const doc = await resp.json();
    const alerts = (doc.alerts || []).slice(-20).reverse();
    const panel = $("#alert-panel");
    panel.hidden = false;
    $("#alerts").innerHTML = alerts.length ? alerts.map(a => `<li>
      <span class="kind ${a.kind === "follow-purge" ? "purge" : ""}">${a.kind}</span>
      <span class="target">${a.target || ""}</span>
      <span class="msg">${a.message || a.tool || ""}</span>
    </li>`).join("") : `<li class="empty">no alerts yet</li>`;
  } catch {
    /* monitord not mounted here; try again next poll */
  }
}

/* ---- poll loop -------------------------------------------------------- */

async function poll() {
  const conn = $("#conn");
  try {
    const resp = await fetch("/metrics.json", { cache: "no-store" });
    if (!resp.ok) throw new Error("HTTP " + resp.status);
    const doc = await resp.json();
    const now = performance.now();
    const dt = prevAt ? (now - prevAt) / 1000 : 0;
    const flat = flatten(doc);

    renderTiles(flat, dt);
    renderSpark();
    renderLatency(flat, dt);
    renderAlerts();

    prevFlat = flat;
    prevAt = now;
    conn.textContent = "live · " + new Date().toLocaleTimeString();
    conn.className = "conn ok";
  } catch (err) {
    conn.textContent = "disconnected: " + err.message;
    conn.className = "conn err";
  }
  setTimeout(poll, POLL_MS);
}

poll();
