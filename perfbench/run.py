#!/usr/bin/env python3
"""The dps-scope benchmark: one command, four workloads, run through `dpscope`.

    python3 perfbench/run.py --workload sweep|analyze|serve|wire \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: it builds `dpscope` and the
benchmark's helper package (`perfbench/traced`) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload for about
S seconds, checks the outputs, prints each metric by name with its unit,
and prints one JSON object as the last line of stdout. It exits 1 when a
check fails (a non-zero exit of `store verify` or `stream check` is one),
and 2 without a result when any other command it runs fails or it cannot
run at all.

`--trace 0` measures the end-to-end metrics through the CLI. `--trace 1`
runs the traced copy, which does the same work through the crates'
public functions with a span around each call, and reports per-layer
metrics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import queue
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
# Every run ends well inside 180 s; children still alive then are killed.
RUN_BUDGET_S = 165.0
# sweep and wire time their set-up over this many spawns before each
# measured repeat (see Bench.setup_times). A 2-20 ms set-up lands in
# whichever speed the shared host runs at for that moment; probes spread
# over the whole run keep one such moment from setting their median.
SETUP_PROBES = 3
# A traced run times this many traced and untraced repeats, in turn, for
# trace_overhead_pct (see alternate).
TRACE_PAIRS = 3

SWEEP = {"scale": 0.6, "days": 6, "cc_start": 3, "shards": 4}
ANALYZE = {"scale": 0.05, "days": 120, "cc_start": 30, "builds": 3, "min_passes": 5}
WIRE = {"scale": 0.02, "days": 3, "cc_start": 2, "chaos": "degrade@0..inf@loss=0.02"}
# serve_max_qps is the closed-loop rate with `window` queries in flight:
# the median of each burst's 100 ms slices, so one scheduling stall on a
# shared host moves it little, and then the median over the `starts`
# sessions, each with a fresh server and load generator.
SERVE = {
    "scale": 1.0,
    "starts": 5,
    "fixed_rate": 5000,
    "fixed_share": 0.4,
    "window": 16,
    "trace_queries": 20000,
}

# End-to-end metrics: every workload reports each one, in its own unit of
# work (see README.md for the mapping onto the per-workload names).
E2E = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("latency_ms", "ms", "lower"),
    ("bytes_per_item", "B", "lower"),
]

EXPERIMENTS = [
    "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "anomalies", "combos", "mechanisms", "nsnames", "ablation", "smoothing",
    "quality", "validation", "pipeline",
]

# Per-layer metrics: (name, unit, better, end-to-end metric it should move).
LAYERS = [
    ("ecosystem.advance_s", "s", "lower", "sweep_rows_per_s; report_s"),
    ("ecosystem.materialize_s", "s", "lower", "wire_names_per_s"),
    ("measure.collect_s", "s", "lower", "sweep_rows_per_s"),
    ("measure.collect_wall_s", "s", "lower", "sweep_rows_per_s"),
    ("measure.intern_s", "s", "lower", "sweep_rows_per_s"),
    ("measure.mirror_s", "s", "lower", "peak_rss_mib"),
    ("measure.mirror_mib", "MiB", "lower", "peak_rss_mib"),
    ("measure.rss_slope_mib_per_day", "MiB/day", "lower", "peak_rss_mib"),
    ("measure.rehydrate_s", "s", "lower", "report_s; peak_rss_mib"),
    ("measure.wire_sweep_s", "s", "lower", "wire_names_per_s"),
    ("columnar.encode_s", "s", "lower", "sweep_rows_per_s"),
    ("columnar.dict_strings", "count", "lower", "peak_rss_mib"),
    ("store.append_s", "s", "lower", "sweep_rows_per_s"),
    ("store.commit_s", "s", "lower", "sweep_rows_per_s; peak_rss_mib"),
    ("store.open_s", "s", "lower", "report_s"),
    ("store.page_load_s", "s", "lower", "report_s"),
    ("store.pages_decoded", "count", "lower", "report_s"),
    ("store.bytes_read", "B", "lower", "report_s"),
    ("stream.on_day_s", "s", "lower", "sweep_rows_per_s"),
    ("core.classify_s", "s", "lower", "report_s"),
    ("core.scan_rows_per_s", "rows/s", "higher", "none today (stream check)"),
] + [("core.exp.%s_s" % e, "s", "lower", "report_s") for e in EXPERIMENTS] + [
    ("dns.parse_us", "us", "lower", "serve_p50_us"),
    ("dns.encode_us", "us", "lower", "serve_p50_us"),
    ("authdns.answer_us", "us", "lower", "serve_p50_us"),
    ("serve.frontend_p50_us", "us", "lower", "serve_p50_us; serve_max_qps"),
    ("serve.frontend_p99_us", "us", "lower", "serve_p99_us; serve_max_qps"),
    ("serve.socket_us", "us", "lower", "serve_p50_us; serve_max_qps"),
    ("serve.full_answer_ratio", "ratio", "higher", "serve_max_qps"),
    ("serve.gen_late_us", "us", "lower", "none (client health)"),
    ("netsim.packets_per_name", "packets/name", "lower", "wire_names_per_s"),
    ("sweep.retries", "count", "lower", "wire_names_per_s"),
    ("health.breaker.trips", "count", "lower", "wire_names_per_s"),
    ("trace_overhead_pct", "%", "lower", "none (reported)"),
]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


# ---------------------------------------------------------------- statistics


def rank(p, n):
    """Nearest rank of the p-th percentile among n samples (1-based).
    Rounded before the ceiling so 99.9% of 10000 is 9990, not 9991."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def percentile(values, p):
    """Nearest-rank p-th percentile of `values` (unsorted is fine)."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[rank(p, len(values)) - 1]


def tail_percentile(n):
    """The highest of the usual percentiles with at least ten of `n`
    samples beyond it, or None when even the median has fewer."""
    for p in (99.99, 99.9, 99.0, 90.0, 50.0):
        if n - rank(p, n) >= 10:
            return p
    return None


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children on the same
    thread cover. Children on other threads (workers a span fanned out
    to) run alongside it and are not subtracted."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = [
            (max(spans[c]["start"], s["start"]), min(spans[c]["end"], s["end"]))
            for c in children.get(i, [])
            if spans[c]["thread"] == s["thread"]
        ]
        covered = [(a, b) for a, b in covered if b > a]
        out.append(s["end"] - s["start"] - union_length(covered))
    return out


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            name, ident, thread, parent, start, end = line.rstrip("\n").split("\t")
            spans.append({
                "name": name, "id": int(ident), "thread": int(thread),
                "parent": int(parent), "start": int(start), "end": int(end),
            })
    return spans


def layer_seconds(spans):
    """Summed self time per span name, in seconds."""
    out = {}
    for s, t in zip(spans, self_times(spans)):
        out[s["name"]] = out.get(s["name"], 0.0) + t / 1e9
    return out


def call_us(spans, name, p):
    """p-th percentile duration of the spans named `name`, in µs."""
    durations = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return percentile(durations, p) / 1e3 if durations else 0.0


def slope(xs, ys):
    """Least-squares slope of ys over xs."""
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


# ------------------------------------------------------------ metric format


def check_metric(name, unit, better):
    """Validates one metric definition; returns it unchanged."""
    if not NAME_RE.match(name):
        raise ValueError("bad metric name %r" % name)
    if not UNIT_RE.match(unit):
        raise ValueError("bad unit %r for %s" % (unit, name))
    if better not in ("higher", "lower"):
        raise ValueError("bad direction %r for %s" % (better, name))
    return name, unit, better


def format_metric_line(name, value, unit):
    return "%s %r %s" % (name, float(value), unit)


def parse_metric_line(line):
    """Inverse of format_metric_line: (name, value, unit)."""
    name, value, unit = line.split()
    check_metric(name, unit, "lower")
    return name, float(value), unit


# ------------------------------------------------------------------ processes

LIVE = []


class Proc:
    """A child process whose stdout lines are timestamped as they arrive.

    Rust's stdout is line-buffered, so a line's arrival time is when the
    child printed it. Peak memory comes from the kernel: VmHWM from
    /proc while the child is alive, ru_maxrss from wait4 when it is reaped.
    """

    def __init__(self, argv, stdin=False):
        self.argv = argv
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            argv, cwd=ROOT, text=True, bufsize=1,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        LIVE.append(self)
        self.lines = queue.Queue()
        self.out = []
        self.err = []
        self.err_times = []
        self.eof_t = None
        self.readers = [
            threading.Thread(target=self._read_out, daemon=True),
            threading.Thread(target=self._read_err, daemon=True),
        ]
        for t in self.readers:
            t.start()

    def _read_out(self):
        for line in self.p.stdout:
            item = (time.perf_counter(), line.rstrip("\n"))
            self.out.append(item)
            self.lines.put(item)
        self.eof_t = time.perf_counter()
        self.lines.put(None)

    def _read_err(self):
        for line in self.p.stderr:
            self.err_times.append(time.perf_counter() - self.t0)
            self.err.append(line)

    def next_line(self, timeout):
        try:
            item = self.lines.get(timeout=max(0.1, timeout))
        except queue.Empty:
            raise BenchError("%s: no output within %.0f s" % (self.argv[1], timeout))
        if item is None:
            raise BenchError("%s exited early: %s" % (" ".join(self.argv[:2]), "".join(self.err[-5:])))
        return item

    def send(self, text):
        self.p.stdin.write(text)
        self.p.stdin.flush()

    def vm_hwm_mib(self):
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for pid %d" % self.p.pid)

    def wait(self, timeout):
        """Reaps the child; returns (exit code, wall s, peak RSS MiB)."""
        if self.p.stdin:
            try:
                self.p.stdin.close()
            except OSError:
                pass
        # Stdout reaches EOF when the child exits; waiting on the reader
        # instead of polling keeps this process off the CPUs it measures.
        self.readers[0].join(timeout)
        if self.readers[0].is_alive():
            self.p.kill()
        _, status, usage = os.wait4(self.p.pid, 0)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        for t in self.readers:
            t.join(timeout=5)
        LIVE.remove(self)
        end = self.eof_t if self.eof_t is not None else time.perf_counter()
        return self.p.returncode, end - self.t0, usage.ru_maxrss / 1024.0


class FileWatch:
    """Polls a file's size from a thread and records when it changes.

    Each day's commit appends to a sharded archive's manifest in a few
    writes, so the changes come in bursts, one per commit; see
    commit_gaps."""

    def __init__(self, path, every_s=0.002):
        self.path = path
        self.changes = []
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._poll, args=(every_s,), daemon=True)
        self.thread.start()

    def _poll(self, every_s):
        last = None
        while not self.done.is_set():
            try:
                size = os.stat(self.path).st_size
            except FileNotFoundError:
                size = None
            if size is not None and size != last:
                self.changes.append(time.perf_counter())
                last = size
            self.done.wait(every_s)

    def close(self):
        self.done.set()
        self.thread.join()
        return self.changes


def commit_gaps(changes, burst_s=0.05):
    """Seconds between consecutive bursts of file changes; changes less
    than `burst_s` after the previous one belong to its burst."""
    starts = []
    for i, t in enumerate(changes):
        if i == 0 or t - changes[i - 1] >= burst_s:
            starts.append(t)
    return [b - a for a, b in zip(starts, starts[1:])]


def kill_all():
    for proc in list(LIVE):
        proc.p.kill()
        os.waitpid(proc.p.pid, 0)
        LIVE.remove(proc)


class Bench:
    """One run: binaries, deadline, working directory and problems found."""

    def __init__(self, dpscope, helper, seed, seconds, work):
        self.dpscope = dpscope
        self.helper = helper
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.problems = []

    def left(self):
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def run(self, argv, exit_is_check=False):
        """Runs a child to completion; returns its timed record. A non-zero
        exit means the benchmark could not run (BenchError), unless
        `exit_is_check`: then the command's exit code is an output check
        (`store verify`, `stream check`) and the caller records it."""
        proc = Proc(argv)
        code, wall, peak = proc.wait(self.left())
        lines = [l for _, l in proc.out]
        if code != 0 and not exit_is_check:
            raise BenchError("%s failed (%d): %s" % (" ".join(argv[1:3]), code, "".join(proc.err[-5:])))
        first = proc.out[0][0] - proc.t0 if proc.out else wall
        return {"code": code, "wall": wall, "first": first, "peak": peak, "lines": lines,
                "times": [t - proc.t0 for t, _ in proc.out], "err": proc.err,
                "err_times": proc.err_times}

    def setup_times(self, argv, archive):
        """Times from spawning `argv` to its `world:` line, over
        SETUP_PROBES spawns into a fresh `archive`. Each child is killed at
        that line, so only its set-up runs, and no other work of the run
        competes with it."""
        times = []
        for _ in range(SETUP_PROBES):
            fresh(archive)
            proc = Proc(argv)
            at, line = proc.next_line(self.left())
            proc.p.kill()
            proc.wait(self.left())
            self.check(line.startswith("world:"), "%s: first line is not the world line" % argv[1])
            times.append(at - proc.t0)
        fresh(archive)
        return times

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    def digest(self, archive):
        r = self.run([self.helper, "digest", "--archive", os.path.join(archive, "archive.dps")])
        pages = [l for l in r["lines"] if l.startswith("page ")]
        total = r["lines"][-1].split()
        return pages, {"rows": int(total[2]), "quality_attempted": int(total[4]),
                       "quality_failed": int(total[6])}

    def scenario(self, cfg):
        return ["--seed", str(self.seed), "--scale", str(cfg["scale"]),
                "--days", str(cfg["days"]), "--cc-start", str(cfg["cc_start"])]

    def metrics_json(self, archive):
        r = self.run([self.dpscope, "metrics", archive, "--json"])
        return json.loads(r["lines"][-1])["counters"]

    def spans_path(self):
        return self.path("spans.tsv")


def dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def file_sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def repeat_until(bench, min_units, unit):
    """Runs `unit()` until the run's seconds are used, at least min_units times."""
    end = time.perf_counter() + bench.seconds
    out = []
    while len(out) < min_units or time.perf_counter() < end:
        out.append(unit())
    return out


def alternate(plain, traced):
    """Runs `plain()` and `traced()` in turn TRACE_PAIRS times; returns
    both lists of results. Alternating keeps a change in the host's speed
    from landing on one side of trace_overhead_pct only."""
    pairs = [(plain(), traced()) for _ in range(TRACE_PAIRS)]
    return [p for p, _ in pairs], [t for _, t in pairs]


def overhead_pct(traced_s, plain_s):
    """Median traced wall time against the median untraced one, in %."""
    plain = statistics.median(plain_s)
    return (statistics.median(traced_s) - plain) / plain * 100.0


# ------------------------------------------------------------------ workloads


def sweep(b, trace):
    """`dpscope measure --stream --shards 4`: a large population over a
    short calendar, writing the store and never scanning it."""
    cfg = SWEEP
    archive = b.path("sweep")
    argv = [b.dpscope, "measure", "--stream", "--shards", str(cfg["shards"]),
            *b.scenario(cfg), "--archive", archive]
    setup = []

    def unit():
        setup.extend(b.setup_times(argv, archive))
        watch = FileWatch(os.path.join(fresh(archive), "archive.manifest"))
        try:
            r = b.run(argv)
        finally:
            changes = watch.close()
        b.check(r["lines"][0].startswith("world:"), "sweep: no world line")
        r["sweep_s"] = r["wall"] - r["first"]
        # The first burst creates the manifest; each later one is a day.
        r["day_gaps"] = commit_gaps(changes)
        return r

    traced_dir = b.path("sweep-traced")

    def traced_unit():
        t = b.run([b.helper, "trace-sweep", *b.scenario(cfg), "--shards", str(cfg["shards"]),
                   "--archive", fresh(traced_dir), "--spans", b.spans_path()])
        return json.loads(t["lines"][-1])

    if trace:
        units, infos = alternate(unit, traced_unit)
    else:
        units = repeat_until(b, 2, unit)
    pages, totals = b.digest(archive)
    rows = totals["rows"]
    verify = b.run([b.dpscope, "store", "verify", archive], exit_is_check=True)
    b.check(verify["code"] == 0 and verify["lines"] and verify["lines"][-1].endswith(" 0 corrupt"),
            "sweep: store verify found corrupt pages (exit %d)" % verify["code"])
    stream = b.run([b.dpscope, "stream", "check", archive], exit_is_check=True)
    b.check(stream["code"] == 0,
            "sweep: stream check: incremental state differs from a full rescan (exit %d)" % stream["code"])
    counters = b.metrics_json(archive)
    b.check(counters.get("measure.rows") == rows, "sweep: catalog rows != measure.rows")
    b.check(totals["quality_attempted"] == rows, "sweep: quality records do not cover every row")
    size = dir_bytes(archive)
    res = {
        "attempted": rows * len(units),
        "failed": totals["quality_failed"] * len(units),
        "counts": {"rows": rows, "archive_bytes": size, "pages": len(pages),
                   "data_points": counters.get("measure.data.points")},
    }
    if not trace:
        rates = [rows / u["sweep_s"] for u in units]
        gaps = [g for u in units for g in u["day_gaps"]]
        b.check(len(gaps) >= len(units), "sweep: no day commits seen in the manifest")
        res["e2e"] = {
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(u["peak"] for u in units),
            "work_per_s": statistics.median(rates),
            "latency_ms": statistics.median(gaps or [0.0]) * 1e3,
            "bytes_per_item": size / rows,
        }
        res["named"] = [("sweep_rows_per_s", res["e2e"]["work_per_s"], "rows/s"),
                        ("day_commit_ms", res["e2e"]["latency_ms"], "ms"),
                        ("archive_bytes_per_row", size / rows, "B/row")]
        return res
    info = infos[-1]
    traced_pages, _ = b.digest(traced_dir)
    b.check(traced_pages == pages, "sweep: traced data pages differ from the CLI's")
    spans = load_spans(b.spans_path())
    secs = layer_seconds(spans)
    hwm = [k / 1024.0 for k in info["hwm_kib"]]
    res["layers"] = {
        "ecosystem.advance_s": secs.get("ecosystem.advance", 0.0),
        "measure.collect_s": secs.get("measure.collect", 0.0),
        "measure.collect_wall_s": secs.get("measure.collect_wall", 0.0),
        "measure.intern_s": secs.get("measure.intern", 0.0),
        "measure.mirror_s": secs.get("measure.mirror", 0.0),
        "measure.mirror_mib": info["mirror_bytes"] / 2**20,
        "measure.rss_slope_mib_per_day": slope(list(range(len(hwm))), hwm),
        "columnar.encode_s": secs.get("columnar.encode", 0.0),
        "columnar.dict_strings": info["dict_strings"],
        "store.append_s": secs.get("store.append", 0.0),
        "store.commit_s": secs.get("store.commit", 0.0),
        "stream.on_day_s": secs.get("stream.on_day", 0.0),
        "trace_overhead_pct": overhead_pct([i["wall_s"] for i in infos],
                                           [u["wall"] for u in units]),
    }
    res["counts"]["dict_strings"] = info["dict_strings"]
    return res


def analyze(b, trace):
    """`dpscope analyze all` over a small-population, long-calendar
    archive that this run builds first (that build is the set-up)."""
    cfg = ANALYZE
    builds = []
    for i in range(1 if trace else cfg["builds"]):
        d = b.path("archive%d" % i)
        r = b.run([b.dpscope, "measure", *b.scenario(cfg), "--archive", fresh(d)])
        builds.append((r["wall"], file_sha(os.path.join(d, "archive.dps"))))
    b.check(len({h for _, h in builds}) == 1, "analyze: archive builds of one seed differ")
    archive = b.path("archive0")
    before = builds[0][1]
    out = b.path("figures")

    def unit():
        r = b.run([b.dpscope, "analyze", *b.scenario(cfg), "--archive", archive,
                   "--out", out, "all"])
        r["text"] = "\n".join(r["lines"])
        # Progress lines, `wrote <file>` among them, go to stderr.
        wrote = [t for t, l in zip(r["err_times"], r["err"]) if l.strip().startswith("wrote ")]
        b.check(bool(wrote), "analyze: no table written")
        r["first_table"] = wrote[0] if wrote else r["wall"]
        return r

    text_file = b.path("traced-report.txt")

    def traced_unit():
        t = b.run([b.helper, "trace-analyze", *b.scenario(cfg), "--archive", archive,
                   "--out", out, "--text", text_file, "--spans", b.spans_path()])
        with open(text_file) as f:
            return json.loads(t["lines"][-1]), f.read()

    if trace:
        passes, traced = alternate(unit, traced_unit)
    else:
        passes = repeat_until(b, cfg["min_passes"], unit)
    text = passes[0]["text"]
    b.check("== Table 1" in text and "== Table 2" in text, "analyze: no Table 1/2 in output")
    differing = sum(p["text"] != text for p in passes)
    b.check(differing == 0, "analyze: output differs across passes")
    b.check(file_sha(os.path.join(archive, "archive.dps")) == before,
            "analyze: the archive changed during the passes")
    _, totals = b.digest(archive)
    rows = totals["rows"]
    size = os.path.getsize(os.path.join(archive, "archive.dps"))
    res = {
        "attempted": len(passes),
        "failed": differing,
        "counts": {"rows": rows, "archive_bytes": size, "archive_sha256": before,
                   "report_sha256": hashlib.sha256(text.encode()).hexdigest()},
    }
    if not trace:
        report = statistics.median(p["wall"] for p in passes)
        first_table = statistics.median(p["first_table"] for p in passes)
        res["e2e"] = {
            "setup_s": statistics.median(w for w, _ in builds),
            "peak_rss_mib": statistics.median(p["peak"] for p in passes),
            "work_per_s": rows / report,
            "latency_ms": first_table * 1e3,
            "bytes_per_item": size / rows,
        }
        res["named"] = [("report_s", report, "s"), ("first_table_ms", first_table * 1e3, "ms"),
                        ("archive_bytes_per_row", size / rows, "B/row")]
        return res
    info = traced[-1][0]
    b.check(all(t.rstrip("\n") == text.rstrip("\n") for _, t in traced),
            "analyze: traced report differs from the CLI's")
    b.check(all(i["series_equal"] for i, _ in traced),
            "analyze: cold store scan series differ from the rehydrated scan")
    secs = layer_seconds(load_spans(b.spans_path()))
    layers = {
        "ecosystem.advance_s": secs.get("ecosystem.advance", 0.0),
        "measure.rehydrate_s": secs.get("measure.rehydrate", 0.0),
        "store.open_s": secs.get("store.open", 0.0),
        "store.page_load_s": secs.get("store.page_load", 0.0),
        "store.pages_decoded": info["pages_decoded"],
        "store.bytes_read": info["bytes_read"],
        "core.classify_s": secs.get("core.classify", 0.0),
        "core.scan_rows_per_s": info["rows"] / info["scan_s"],
        "trace_overhead_pct": overhead_pct([i["wall_s"] for i, _ in traced],
                                           [p["wall"] for p in passes]),
    }
    for e in EXPERIMENTS:
        layers["core.exp.%s_s" % e] = secs.get("core.exp.%s" % e, 0.0)
    res["layers"] = layers
    return res


def wire(b, trace):
    """`dpscope measure --chaos` at small scale: iterative resolution over
    the simulated lossy network under the sweep supervisor."""
    cfg = WIRE
    reference = b.path("bulk")
    b.run([b.dpscope, "measure", *b.scenario(cfg), "--archive", fresh(reference)])
    ref_pages, _ = b.digest(reference)
    archive = b.path("wire")
    argv = [b.dpscope, "measure", "--chaos", cfg["chaos"], *b.scenario(cfg), "--archive", archive]
    day_re = re.compile(r"attempted\s+(\d+)\s+unresolved\s+(\d+)")
    setup = []

    def unit():
        setup.extend(b.setup_times(argv, archive))
        r = b.run(argv)
        b.check(r["lines"][0].startswith("world:"), "wire: no world line")
        days = [day_re.search(l) for l in r["lines"]]
        r["names"] = sum(int(m.group(1)) for m in days if m)
        r["unresolved"] = sum(int(m.group(2)) for m in days if m)
        r["sweep_s"] = r["wall"] - r["first"]
        # Each (day, source) prints its line when it is swept: a day ends
        # with its last line, and the first day starts at the world line.
        ends = {}
        for t, l, m in zip(r["times"], r["lines"], days):
            if m:
                ends[int(l.split()[1])] = t
        ends = [r["first"]] + [ends[d] for d in sorted(ends)]
        r["day_gaps"] = [end - start for start, end in zip(ends, ends[1:])]
        pages, totals = b.digest(archive)
        b.check(pages == ref_pages, "wire: data pages differ from a bulk sweep of the same seed")
        r["rows"] = totals["rows"]
        return r

    traced_dir = b.path("wire-traced")

    def traced_unit():
        t = b.run([b.helper, "trace-wire", *b.scenario(cfg), "--chaos", cfg["chaos"],
                   "--archive", fresh(traced_dir), "--spans", b.spans_path()])
        pages, _ = b.digest(traced_dir)
        b.check(pages == ref_pages, "wire: traced data pages differ from the CLI's")
        return json.loads(t["lines"][-1])

    if trace:
        units, infos = alternate(unit, traced_unit)
    else:
        units = repeat_until(b, 2, unit)
    names = units[0]["names"]
    b.check(all(u["names"] == names for u in units), "wire: name counts differ between repeats")
    b.check(units[0]["rows"] == names, "wire: archive rows != names swept")
    size = os.path.getsize(os.path.join(archive, "archive.dps"))
    res = {
        "attempted": sum(u["names"] for u in units),
        "failed": sum(u["unresolved"] for u in units),
        "counts": {"names": names, "archive_bytes": size, "pages": len(ref_pages)},
    }
    if not trace:
        res["e2e"] = {
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(u["peak"] for u in units),
            # Names over the run's whole sweep time: the host's speed drifts
            # within a run, and the mean rate covers all of it.
            "work_per_s": names * len(units) / sum(u["sweep_s"] for u in units),
            "latency_ms": statistics.median(g for u in units for g in u["day_gaps"]) * 1e3,
            "bytes_per_item": size / names,
        }
        res["named"] = [("wire_names_per_s", res["e2e"]["work_per_s"], "names/s"),
                        ("wire_day_ms", res["e2e"]["latency_ms"], "ms")]
        return res
    counters = b.metrics_json(archive)
    secs = layer_seconds(load_spans(b.spans_path()))
    attempted = counters.get("sweep.attempted", 0)
    b.check(attempted == names, "wire: sweep.attempted != names printed")
    res["layers"] = {
        "ecosystem.advance_s": secs.get("ecosystem.advance", 0.0),
        "ecosystem.materialize_s": secs.get("ecosystem.materialize", 0.0),
        "measure.wire_sweep_s": secs.get("measure.wire_sweep", 0.0),
        "netsim.packets_per_name": counters.get("net.packets.sent", 0) / max(1, attempted),
        "sweep.retries": counters.get("sweep.retries", 0),
        "health.breaker.trips": counters.get("health.breaker.trips", 0),
        "trace_overhead_pct": overhead_pct([i["wall_s"] for i in infos],
                                           [u["wall"] for u in units]),
    }
    res["counts"].update({k: counters.get(k) for k in
                          ("net.packets.sent", "sweep.retries", "health.breaker.trips")})
    return res


def serve_latencies(phase):
    """Answered latencies in µs, with each unanswered query as +inf."""
    lat = [ns / 1e3 for ns in phase["latency_ns"]]
    return lat + [math.inf] * phase["lost"]


def serve_session(b, zones, fixed_s, burst_s):
    """Starts one server and one load generator against it, runs an
    open-loop phase (with the sampled byte check) and, when `burst_s`, a
    closed-loop burst, then stops both. Returns the server's start time,
    the phase and burst reports, its VmHWM and its exit counters."""
    cfg = SERVE
    server = Proc([b.dpscope, "serve", "--zones", zones], stdin=True)
    at, line = server.next_line(b.left())
    b.check(line.startswith("serve: listening"), "serve: unexpected first line %r" % line)
    fields = dict(w.split("=", 1) for w in line.split() if "=" in w)
    gen = Proc([b.helper, "loadgen", "--udp", fields["udp"], "--tcp", fields["tcp"],
                "--zones", zones, "--seed", str(b.seed)], stdin=True)
    _, ready = gen.next_line(b.left())
    b.check(ready == "ready", "serve: load generator not ready: %r" % ready)
    gen.send("phase %s %s 1\n" % (cfg["fixed_rate"], round(fixed_s, 3)))
    fixed = json.loads(gen.next_line(b.left())[1])
    burst = {"lost": 0, "bad": 0, "sent": 0, "slices": []}
    if burst_s:
        gen.send("burst %d %s\n" % (cfg["window"], round(burst_s, 3)))
        burst = json.loads(gen.next_line(b.left())[1])
    hwm = server.vm_hwm_mib()
    gen.send("quit\n")
    code, _, _ = gen.wait(b.left())
    b.check(code == 0, "serve: load generator failed: %s" % "".join(gen.err[-3:]))
    code, _, _ = server.wait(b.left())
    b.check(code == 0, "serve: server exited %d" % code)
    counters = {}
    for _, l in server.out:
        parts = l.split()
        if len(parts) == 2 and parts[1].isdigit():
            counters[parts[0]] = int(parts[1])
    return {"start": at - server.t0, "fixed": fixed, "burst": burst, "hwm": hwm,
            "counters": counters}


def serve(b, trace):
    """`dpscope serve` over simulated zones plus a zone with large RRsets.
    Each of several sessions starts a fresh server and load generator and
    runs an open-loop phase at a fixed rate, then a closed-loop burst; the
    metrics are medians over the sessions, so no one placement of the two
    processes on the CPUs sets them."""
    cfg = SERVE
    zones = b.path("zones")
    exports = []
    for _ in range(cfg["starts"]):
        r = b.run([b.dpscope, "simulate", "--seed", str(b.seed), "--scale", str(cfg["scale"]),
                   "--out", fresh(zones)])
        exports.append(r["wall"])
    b.run([b.helper, "fat-zone", "--zones", zones])

    n = 1 if trace else cfg["starts"]
    share = b.seconds / n
    sessions = [serve_session(b, zones, share * cfg["fixed_share"],
                              0 if trace else share * (1 - cfg["fixed_share"]))
                for _ in range(n)]
    phases = [s["fixed"] for s in sessions]
    bursts = [s["burst"] for s in sessions]
    fixed = {k: sum(p[k] for p in phases) for k in
             ("queries", "sent", "answered", "bytes", "lost", "bad", "checked", "mismatched",
              "tcp", "tcp_errors", "send_errors", "abuse_sent", "abuse_answered")}
    lat = [l for p in phases for l in serve_latencies(p)]
    p50 = statistics.median(percentile(serve_latencies(p), 50) for p in phases)
    p99 = percentile(lat, 99)
    rates = []
    for burst in [] if trace else bursts:
        # The first slice warms up and the last may be cut short.
        slices = burst["slices"][1:-1]
        b.check(len(slices) >= 10, "serve: closed-loop burst too short")
        rates.append(statistics.median(slices or [0]) / burst["slice_s"])
    b.check(fixed["checked"] > 0, "serve: no answers sampled for byte comparison")
    b.check(fixed["mismatched"] == 0, "serve: %d sampled answers differ from in-process ones" % fixed["mismatched"])
    b.check(fixed["bad"] == 0, "serve: %d answers do not echo id/question or have a wrong rcode" % fixed["bad"])
    b.check(fixed["tcp"] > 0, "serve: no truncated answer was retried over TCP")
    b.check(all(p["abuse_answered"] < p["abuse_sent"] for p in phases),
            "serve: the over-rate source was not limited in every session")
    burst_bad = sum(x["bad"] for x in bursts)
    b.check(burst_bad == 0, "serve: %d burst answers do not echo id/question or have a wrong rcode" % burst_bad)
    failed = (fixed["lost"] + fixed["bad"] + fixed["mismatched"] + fixed["tcp_errors"]
              + fixed["send_errors"] + sum(x["lost"] for x in bursts) + burst_bad)
    res = {
        "attempted": fixed["queries"] + sum(x["sent"] for x in bursts),
        "failed": failed,
        "counts": {"zone_files": len([f for f in os.listdir(zones) if f.endswith(".zone")]),
                   "queries": fixed["queries"]},
    }
    if not trace:
        max_qps = statistics.median(rates)
        tail = tail_percentile(len(lat))
        res["e2e"] = {
            "setup_s": statistics.median(exports) + statistics.median(s["start"] for s in sessions),
            "peak_rss_mib": statistics.median(s["hwm"] for s in sessions),
            "work_per_s": max_qps,
            "latency_ms": p50 / 1e3,
            "bytes_per_item": fixed["bytes"] / max(1, fixed["answered"]),
        }
        res["named"] = [("serve_p50_us", p50, "us"), ("serve_p99_us", p99, "us"),
                        ("serve_max_qps", max_qps, "q/s")]
        if tail is not None:
            res["named"].append(("serve_p%g_us" % tail, percentile(lat, tail), "us"))
        return res
    t = b.run([b.helper, "trace-serve", "--zones", zones, "--seed", str(b.seed),
               "--queries", str(cfg["trace_queries"]), "--spans", b.spans_path()])
    info = json.loads(t["lines"][-1])
    spans = load_spans(b.spans_path())
    frontend_p50 = call_us(spans, "serve.frontend", 50)
    sent = fixed["sent"] + fixed["tcp"] + fixed["abuse_sent"]
    counters = sessions[0]["counters"]
    full = (counters.get("serve_responses", 0) - counters.get("serve_truncated", 0)
            - counters.get("serve_rrl_slipped", 0) - counters.get("serve_shed_refused", 0))
    res["layers"] = {
        "dns.parse_us": call_us(spans, "dns.parse", 50),
        "dns.encode_us": call_us(spans, "dns.encode", 50),
        "authdns.answer_us": call_us(spans, "authdns.answer", 50),
        "serve.frontend_p50_us": frontend_p50,
        "serve.frontend_p99_us": call_us(spans, "serve.frontend", 99),
        "serve.socket_us": p50 - frontend_p50,
        "serve.full_answer_ratio": full / max(1, sent),
        "serve.gen_late_us": phases[0]["late_p99_ns"] / 1e3,
        "trace_overhead_pct": overhead_pct([info["traced_s"]], [info["plain_s"]]),
    }
    return res


WORKLOADS = {"sweep": sweep, "analyze": analyze, "serve": serve, "wire": wire}

# ------------------------------------------------------------- command line


def source_digest():
    """Fingerprint of the source tree the binaries were built from (the
    checkout need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, files in os.walk(base):
            dirnames[:] = [d for d in dirnames if d not in ("__pycache__", "target")]
            paths.extend(os.path.join(dirpath, f) for f in files)
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def mem_total_kib():
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    return 0


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "--bin", "dpscope"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "traced", "Cargo.toml")],
    ):
        r = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build failed: %s" % " ".join(argv))
    release = os.path.join(ROOT, target, "release")
    return os.path.join(release, "dpscope"), os.path.join(release, "perfbench")


def self_check(workload, seed, trace, source, counts):
    """Exact counts of one seed must repeat across runs of the same build."""
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    problems = []
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier["provenance"]["source"] == source and earlier["counts"] != counts:
            problems.append("%s: exact counts differ from an earlier run of seed %d: %s vs %s"
                            % (workload, seed, earlier.get("counts"), counts))
    return path, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in ("Cargo.toml", "src", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print("perfbench: %s is not a dps-scope source checkout (no %s)" % (ROOT, needed),
                  file=sys.stderr)
            return 2
    try:
        dpscope, helper = build()
        work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        os.makedirs(fresh(work))
        bench = Bench(dpscope, helper, args.seed, args.seconds, work)
        try:
            res = WORKLOADS[args.workload](bench, bool(args.trace))
        finally:
            kill_all()
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    source = source_digest()
    provenance = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "cpus": os.cpu_count(), "mem_total_kib": mem_total_kib(), "source": source}
    path, problems = self_check(args.workload, args.seed, args.trace, source, res["counts"])
    problems = bench.problems + problems
    if args.trace:
        values = {name: float(res["layers"].get(name, 0.0)) for name, _, _, _ in LAYERS}
        defs = [(name, unit, "-> %s" % target) for name, unit, _, target in LAYERS]
    else:
        values = {name: float(res["e2e"][name]) for name, _, _ in E2E}
        defs = [(name, unit, "") for name, unit, _ in E2E]
    print("provenance: " + " ".join("%s=%s" % kv for kv in provenance.items()))
    for name, value, unit in res.get("named", []):
        print(format_metric_line(name, value, unit))
    for name, unit, note in defs:
        print(format_metric_line(name, values[name], unit) + (" " + note if note else ""))
    print("failed/attempted: %d/%d" % (res["failed"], res["attempted"]))
    for p in problems:
        print("CHECK FAILED: " + p)
    with open(path, "w") as f:
        json.dump({"provenance": provenance, "counts": res["counts"], "metrics": values,
                   "problems": problems}, f, indent=1, sort_keys=True)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in defs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
