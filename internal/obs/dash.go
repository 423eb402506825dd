package obs

import "net/http"

// DashHandler serves the live ops dashboard: a single self-contained HTML
// page (no external assets, no dependencies) that polls /debug/rpq/ts and
// /debug/rpq/queries and renders sparklines for query rate, latency
// quantiles, in-flight count, heap, GC pauses, and goroutines, with
// drill-down links to the JSON endpoints and pprof. All rendering happens
// client-side; the handler just serves the page.
func DashHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(dashHTML))
	})
}

// dashHTML is the dashboard page. The palette follows the repository's
// chart conventions: categorical slots assigned in fixed order (blue,
// orange, aqua), text in text tokens rather than series colors, recessive
// grid, and selected dark-mode steps rather than an automatic flip.
const dashHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>rpq dashboard</title>
<style>
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb;
  --surface-2: #f0efec;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --grid: #e3e2de;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19;
    --surface-2: #262624;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #383835;
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 16px 20px; background: var(--surface-1);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
header { display: flex; align-items: baseline; gap: 16px; flex-wrap: wrap; margin-bottom: 12px; }
h1 { font-size: 18px; margin: 0; font-weight: 600; }
nav a { color: var(--text-secondary); margin-right: 12px; text-decoration: none; border-bottom: 1px dotted var(--text-secondary); }
nav a:hover { color: var(--text-primary); }
#status { color: var(--text-secondary); font-size: 12px; }
.grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(300px, 1fr)); gap: 12px; }
.card { background: var(--surface-2); border-radius: 8px; padding: 10px 12px 6px; }
.card h2 { font-size: 12px; font-weight: 600; color: var(--text-secondary); margin: 0; text-transform: uppercase; letter-spacing: .04em; }
.card .now { font-size: 22px; font-weight: 600; font-variant-numeric: tabular-nums; margin: 2px 0 4px; }
.card .now small { font-size: 12px; font-weight: 400; color: var(--text-secondary); }
.legend { font-size: 11px; color: var(--text-secondary); margin: 0 0 2px; }
.legend .swatch { display: inline-block; width: 8px; height: 8px; border-radius: 2px; margin: 0 4px 0 10px; vertical-align: baseline; }
.legend .swatch:first-child { margin-left: 0; }
svg { display: block; width: 100%; height: 64px; }
.hoverval { font-size: 11px; color: var(--text-secondary); min-height: 15px; font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; width: 100%; margin-top: 16px; font-size: 13px; font-variant-numeric: tabular-nums; }
th, td { text-align: left; padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid); }
th { color: var(--text-secondary); font-weight: 500; font-size: 12px; }
#empty { color: var(--text-secondary); margin-top: 8px; }
</style>
</head>
<body>
<header>
  <h1>rpq live dashboard</h1>
  <nav>
    <a href="/debug/rpq/">debug index</a>
    <a href="/debug/rpq/queries">in-flight queries</a>
    <a href="/debug/rpq/ts">time-series JSON</a>
    <a href="/debug/rpq/prof">profiles</a>
    <a href="/metrics">metrics</a>
    <a href="/debug/pprof/">pprof</a>
  </nav>
  <span id="status">connecting&hellip;</span>
</header>
<div class="grid" id="cards"></div>
<div id="slosec" style="display:none">
<h1 style="font-size:15px;margin-top:20px">SLO burn rate</h1>
<div id="slo"></div>
</div>
<h1 style="font-size:15px;margin-top:20px">Queries executing now</h1>
<div id="inflight"><p id="empty">none</p></div>
<div id="exsec" style="display:none">
<h1 style="font-size:15px;margin-top:20px">Latency exemplars</h1>
<div id="exemplars"></div>
</div>
<script>
"use strict";
// Card definitions: each pulls one or more series from the rpq-tsdb/1
// document. transform maps raw values to display units; rate differentiates
// a monotonic counter against the timestamps.
var CARDS = [
  {id: "qrate", title: "Query rate", unit: "q/s", series: [
    {name: "rpq_queries_total", label: "rate", rate: true, scale: 1}]},
  {id: "lat", title: "Query latency", unit: "ms", series: [
    {name: "rpq_query_seconds_p50_us", label: "p50", scale: 1e-3},
    {name: "rpq_query_seconds_p95_us", label: "p95", scale: 1e-3},
    {name: "rpq_query_seconds_p99_us", label: "p99", scale: 1e-3}]},
  {id: "infl", title: "In-flight queries", unit: "", series: [
    {name: "rpq_inflight_queries", label: "in-flight", scale: 1}]},
  {id: "heap", title: "Live heap", unit: "MiB", series: [
    {name: "go_heap_live_bytes", label: "heap", scale: 1 / 1048576}]},
  {id: "gc", title: "GC pause", unit: "µs", series: [
    {name: "go_gc_pause_p50_us", label: "p50", scale: 1},
    {name: "go_gc_pause_p99_us", label: "p99", scale: 1}]},
  {id: "gor", title: "Goroutines", unit: "", series: [
    {name: "go_goroutines", label: "goroutines", scale: 1}]}
];
var COLORS = ["var(--series-1)", "var(--series-2)", "var(--series-3)"];
var W = 300, H = 64, PAD = 3;

function el(tag, attrs, parent) {
  var ns = (tag === "svg" || tag === "path" || tag === "line" ||
      tag === "rect" || tag === "text") ?
    document.createElementNS("http://www.w3.org/2000/svg", tag) :
    document.createElement(tag);
  for (var k in attrs) { ns.setAttribute(k, attrs[k]); }
  if (parent) { parent.appendChild(ns); }
  return ns;
}

// buildCards creates the DOM skeleton once.
(function () {
  var grid = document.getElementById("cards");
  CARDS.forEach(function (c) {
    var card = el("div", {"class": "card", id: "card-" + c.id}, grid);
    var h = el("h2", {}, card); h.textContent = c.title;
    el("div", {"class": "now", id: "now-" + c.id}, card);
    if (c.series.length > 1) {
      var lg = el("p", {"class": "legend", id: "legend-" + c.id}, card);
      c.series.forEach(function (s, i) {
        var sw = el("span", {"class": "swatch"}, lg);
        sw.style.background = COLORS[i];
        lg.appendChild(document.createTextNode(s.label));
      });
    }
    var svg = el("svg", {viewBox: "0 0 " + W + " " + H,
      preserveAspectRatio: "none", id: "svg-" + c.id}, card);
    el("line", {x1: 0, y1: H - 1, x2: W, y2: H - 1, stroke: "var(--grid)",
      "stroke-width": 1}, svg);
    el("div", {"class": "hoverval", id: "hover-" + c.id}, card);
  });
})();

// seriesValues extracts one display-ready numeric array (nulls preserved).
function seriesValues(doc, spec) {
  var raw = doc.series[spec.name];
  if (!raw) { return null; }
  var ts = doc.timestamps_ms, out = [], i;
  if (spec.rate) {
    out.push(null);
    for (i = 1; i < raw.length; i++) {
      var dt = (ts[i] - ts[i - 1]) / 1000;
      out.push(raw[i] == null || raw[i - 1] == null || dt <= 0 ? null :
        Math.max(0, (raw[i] - raw[i - 1]) / dt) * spec.scale);
    }
    return out;
  }
  for (i = 0; i < raw.length; i++) {
    out.push(raw[i] == null ? null : raw[i] * spec.scale);
  }
  return out;
}

function fmt(v, unit) {
  if (v == null) { return "–"; }
  var s = v >= 100 ? Math.round(v).toString() :
    v >= 10 ? v.toFixed(1) : v.toFixed(2);
  return unit ? s + " " + unit : s;
}

// renderCard redraws one card's sparklines from the current document.
function renderCard(doc, c) {
  var svg = document.getElementById("svg-" + c.id);
  svg.querySelectorAll("path").forEach(function (p) { p.remove(); });
  var cols = c.series.map(function (s) { return seriesValues(doc, s); });
  var max = 0, n = doc.timestamps_ms.length;
  cols.forEach(function (col) {
    if (col) { col.forEach(function (v) { if (v != null && v > max) { max = v; } }); }
  });
  if (max === 0) { max = 1; }
  cols.forEach(function (col, ci) {
    if (!col || n < 2) { return; }
    var d = "", pen = false, i;
    for (i = 0; i < n; i++) {
      if (col[i] == null) { pen = false; continue; }
      var x = PAD + (W - 2 * PAD) * i / (n - 1);
      var y = H - PAD - (H - 2 * PAD) * col[i] / max;
      d += (pen ? "L" : "M") + x.toFixed(1) + " " + y.toFixed(1);
      pen = true;
    }
    el("path", {d: d, fill: "none", stroke: COLORS[ci], "stroke-width": 2,
      "stroke-linejoin": "round", "stroke-linecap": "round"}, svg);
  });
  var lastCol = cols[0], last = null, i2;
  if (lastCol) {
    for (i2 = lastCol.length - 1; i2 >= 0; i2--) {
      if (lastCol[i2] != null) { last = lastCol[i2]; break; }
    }
  }
  var now = document.getElementById("now-" + c.id);
  now.innerHTML = "";
  now.appendChild(document.createTextNode(fmt(last, "")));
  var u = el("small", {}, now);
  u.textContent = c.unit ? " " + c.unit : "";
  svg.onmousemove = function (ev) {
    var rect = svg.getBoundingClientRect();
    var idx = Math.round((ev.clientX - rect.left) / rect.width * (n - 1));
    if (idx < 0 || idx >= n) { return; }
    var parts = c.series.map(function (s, ci) {
      var col2 = cols[ci];
      return s.label + " " + fmt(col2 ? col2[idx] : null, c.unit);
    });
    document.getElementById("hover-" + c.id).textContent =
      new Date(doc.timestamps_ms[idx]).toLocaleTimeString() + "  " + parts.join("  ");
  };
  svg.onmouseleave = function () {
    document.getElementById("hover-" + c.id).textContent = "";
  };
}

function renderInflight(qs) {
  var host = document.getElementById("inflight");
  if (!qs || qs.length === 0) {
    host.innerHTML = '<p id="empty">none</p>';
    return;
  }
  var cols = [["id", "id"], ["kind", "kind"], ["algo", "algo"],
    ["phase", "phase"], ["elapsed ms", "elapsed_ms"], ["pops", "pops"],
    ["reach", "reach_size"], ["substs", "substs"], ["cpu ms", "cpu_ms"],
    ["alloc bytes", "alloc_bytes"], ["trace", "trace_id"], ["query", "query"]];
  var t = document.createElement("table");
  var tr = document.createElement("tr");
  cols.forEach(function (cc) {
    var th = document.createElement("th"); th.textContent = cc[0]; tr.appendChild(th);
  });
  t.appendChild(tr);
  qs.forEach(function (q) {
    var row = document.createElement("tr");
    cols.forEach(function (cc) {
      var td = document.createElement("td");
      var v = q[cc[1]];
      td.textContent = typeof v === "number" ? Math.round(v * 100) / 100 : (v == null ? "" : v);
      row.appendChild(td);
    });
    t.appendChild(row);
  });
  host.innerHTML = "";
  host.appendChild(t);
}

// renderSLO draws the burn-rate table from the rpq-slo/1 document; the
// whole section stays hidden when the server has no SLO tracker (501).
function renderSLO(doc) {
  var sec = document.getElementById("slosec");
  if (!doc || !doc.slos || doc.slos.length === 0) { sec.style.display = "none"; return; }
  sec.style.display = "";
  var host = document.getElementById("slo");
  var t = document.createElement("table");
  var tr = document.createElement("tr");
  ["route", "objective", "window", "span", "total", "bad", "burn rate", "budget left"].forEach(function (h) {
    var th = document.createElement("th"); th.textContent = h; tr.appendChild(th);
  });
  t.appendChild(tr);
  doc.slos.forEach(function (s) {
    var ws = s.windows && s.windows.length ? s.windows : [null];
    ws.forEach(function (wdw, i) {
      var row = document.createElement("tr");
      function td(v, color) {
        var c = document.createElement("td");
        c.textContent = v;
        if (color) { c.style.color = color; }
        row.appendChild(c);
      }
      td(i === 0 ? s.route : "");
      td(i === 0 ? (s.objective * 100).toFixed(2) + "%" : "");
      if (!wdw) {
        td("no data"); td(""); td(""); td(""); td(""); td("");
      } else {
        td(wdw.window);
        td((wdw.span_ms / 1000).toFixed(0) + "s");
        td(wdw.total);
        td(wdw.bad);
        td(wdw.burn_rate.toFixed(2) + "×",
          wdw.burn_rate >= 1 ? "var(--series-2)" : "");
      }
      td(i === 0 ? (s.error_budget_remaining * 100).toFixed(1) + "%" : "");
      t.appendChild(row);
    });
  });
  host.innerHTML = "";
  host.appendChild(t);
}

// renderExemplars draws the latency-bucket exemplar table: slowest buckets
// first, each with the trace ID to focus a downloaded profile window on
// (go tool pprof -tagfocus=rpq_trace_id=<id>).
function renderExemplars(doc) {
  var sec = document.getElementById("exsec");
  var ex = doc && doc.exemplars;
  if (!ex || ex.length === 0) { sec.style.display = "none"; return; }
  sec.style.display = "";
  var host = document.getElementById("exemplars");
  var t = document.createElement("table");
  var tr = document.createElement("tr");
  ["latency ms", "trace", "when"].forEach(function (h) {
    var th = document.createElement("th"); th.textContent = h; tr.appendChild(th);
  });
  t.appendChild(tr);
  ex.slice(0, 10).forEach(function (e) {
    var row = document.createElement("tr");
    var td1 = document.createElement("td");
    td1.textContent = e.value_ms.toFixed(2);
    row.appendChild(td1);
    var td2 = document.createElement("td");
    td2.textContent = e.trace_id;
    row.appendChild(td2);
    var td3 = document.createElement("td");
    td3.textContent = new Date(e.time).toLocaleTimeString();
    row.appendChild(td3);
    t.appendChild(row);
  });
  host.innerHTML = "";
  host.appendChild(t);
}

function tick() {
  fetch("/debug/rpq/ts").then(function (r) {
    if (!r.ok) { throw new Error("time-series store disabled (HTTP " + r.status + ")"); }
    return r.json();
  }).then(function (doc) {
    document.getElementById("status").textContent =
      doc.points + " points @ " + doc.interval_ms + "ms · schema " + doc.schema;
    CARDS.forEach(function (c) { renderCard(doc, c); });
  }).catch(function (e) {
    document.getElementById("status").textContent = e.message;
  });
  fetch("/debug/rpq/queries").then(function (r) { return r.json(); })
    .then(function (doc) { renderInflight(doc.queries); })
    .catch(function () {});
  fetch("/debug/rpq/slo").then(function (r) {
    if (!r.ok) { throw new Error("disabled"); }
    return r.json();
  }).then(renderSLO).catch(function () {
    document.getElementById("slosec").style.display = "none";
  });
  fetch("/debug/rpq/exemplars").then(function (r) {
    if (!r.ok) { throw new Error("disabled"); }
    return r.json();
  }).then(renderExemplars).catch(function () {
    document.getElementById("exsec").style.display = "none";
  });
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
