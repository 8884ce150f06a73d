#!/usr/bin/env python3
"""End-to-end benchmark of the shipped merAligner binaries.

Builds meraligner_cli, meralignerd and the input generator from the sources
of the checkout it sits in, generates one seeded workload, runs the binaries
on it as a user would (one-shot CLI processes, or tenant connections to a
daemon over its socket protocol), times every run from outside, checks the
SAM output against the ground truth the simulators encode in read and
contig names, and prints the metrics. See perfbench/README.md.

    python3 perfbench/run.py --workload unique-101 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --smoke      # every workload, seconds

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
A human-readable report goes to standard error.
"""

import argparse
import collections
import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
TOOLS_DIR = os.path.join(BUILD_DIR, "mera", "tools")
GEN = os.path.join(BUILD_DIR, "perfbench_gen")
CLI = os.path.join(TOOLS_DIR, "meraligner_cli")
DAEMON = os.path.join(TOOLS_DIR, "meralignerd")
# Sources the build needs beyond perfbench/ itself.
REQUIRED_SOURCES = ["CMakeLists.txt", "src/CMakeLists.txt",
                    "tools/meraligner_cli.cpp", "tools/meralignerd.cpp",
                    "bench/bench_common.hpp"]

ONE_SHOT_FLAGS = ["--k", "51", "--ranks", "4", "--ppn", "2"]
SERVE_FLAGS = ["--k", "19", "--ranks", "2", "--ppn", "1", "--shards", "2"]

# Each workload: generator shape and size, the flags that shape the run, and
# the correctness gates (recall over seed-findable reads, placement
# precision) every run must clear.
WORKLOADS = {
    "unique-101": dict(kind="cli", shape="human", genome_len=2_000_000,
                       depth=5.0, batches=4, k=51, flags=ONE_SHOT_FLAGS,
                       min_recall=0.98, min_precision=0.96),
    "repeat-150": dict(kind="cli", shape="wheat", genome_len=1_000_000,
                       depth=1.5, batches=4, k=51, flags=ONE_SHOT_FLAGS,
                       min_recall=0.98, min_precision=0.88),
    "serve-76": dict(kind="serve", shape="ecoli", genome_len=1_000_000,
                     depth=6.0, batches=160, k=19, flags=SERVE_FLAGS,
                     tenants=3, autosave_s=1,
                     min_recall=0.98, min_precision=0.96),
}
# --smoke: the same workloads at a size that runs in seconds.
SMOKE = {
    "unique-101": dict(genome_len=200_000, depth=2.0),
    "repeat-150": dict(genome_len=200_000, depth=1.0),
    "serve-76": dict(genome_len=200_000, depth=2.0, batches=24),
}

CLI_TIMEOUT_S = 120.0
REQUEST_DEADLINE_S = 30.0
ACCEPT_DEADLINE_S = 60.0
SETUP_REPEATS = 7
POSITION_TOLERANCE = 3  # core::EvalOptions::position_tolerance

END_TO_END = [  # name, unit
    ("wall_s", "s"), ("reads_per_s", "1/s"), ("setup_s", "s"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("batch_latency_p50_ms", "ms"),
    ("recall_findable", "fraction"), ("placement_precision", "fraction"),
]
PER_LAYER = [
    ("seq.reads_load_s", "s"), ("exec.prefetch_stall_s", "s"),
    ("dht.index_build_s", "s"), ("dht.lookups_per_read", "count"),
    ("dht.truncated_frac", "fraction"), ("core.index_mark_s", "s"),
    ("core.align_wall_s", "s"), ("core.rank_imbalance", "ratio"),
    ("core.align_cpu_s", "s"), ("core.exact_frac", "fraction"),
    ("core.records_spread", "fraction"), ("cache.seed_hit_frac", "fraction"),
    ("cache.target_hit_frac", "fraction"), ("cache.seed_evictions", "count"),
    ("cache.autosaves", "count"), ("align.sw_calls", "count"),
    ("align.cells_per_read", "count"), ("align.sw_yield", "ratio"),
    ("align.cells_per_cpu_s", "1/s"), ("shard.imbalance", "ratio"),
    ("serve.gate_wait_frac", "fraction"), ("serve.bytes_out_mb", "MB"),
    ("serve.errors", "count"), ("obs.trace_overhead_frac", "fraction"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- statistics ------------------------------------------------------------

def percentile(samples, q):
    """Nearest-rank percentile (q in (0, 1]) of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples, q, min_beyond=10):
    """The q-percentile, or None unless at least `min_beyond` samples lie
    beyond it — a tail estimate resting on fewer points is noise."""
    if not samples:
        return None
    beyond = len(samples) - max(1, math.ceil(q * len(samples)))
    return percentile(samples, q) if beyond >= min_beyond else None


def rel_spread(values):
    """(max - min) / median of a list of counts; 0 for a single value."""
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# ---- ground truth ----------------------------------------------------------

def parse_read_truth(name):
    """(pos, reverse, junk) from 'r<i>;pos=<p>;strand=<+|->[;junk=1]', the
    naming seq::simulate_reads uses. Raises ValueError on other names."""
    m = re.fullmatch(r"[^;]*;pos=(\d+);strand=([+-])(;junk=1)?", name)
    if not m:
        raise ValueError(f"read name {name!r} carries no truth fields")
    return int(m.group(1)), m.group(2) == "-", m.group(3) is not None


def parse_contig_truth(name):
    """(start, end) genome interval from 'contig<i>:<start>-<end>'."""
    m = re.fullmatch(r".*:(\d+)-(\d+)", name)
    if not m:
        raise ValueError(f"contig name {name!r} carries no interval")
    return int(m.group(1)), int(m.group(2))


def make_truth(findable_by_name):
    """{read name: (pos, reverse, junk, findable)} from {name: findable}."""
    return {name: parse_read_truth(name) + (findable,)
            for name, findable in findable_by_name.items()}


def load_truth(path):
    """The truth table of the generator's truth.tsv (name TAB findable)."""
    with open(path) as f:
        return make_truth(dict((name, findable == "1") for name, findable in
                               (line.rstrip("\n").split("\t") for line in f)))


def parse_sam_records(text):
    """(qname, flag, rname, pos, mapq, score) for every non-header line;
    score is the AS tag (0 without one)."""
    records = []
    for line in text.splitlines():
        if not line or line.startswith("@"):
            continue
        f = line.split("\t", 5)
        at = line.find("\tAS:i:")
        score = 0
        if at >= 0:
            end = line.find("\t", at + 6)
            score = int(line[at + 6:end if end >= 0 else len(line)])
        records.append((f[0], int(f[1]), f[2], int(f[3]), int(f[4]), score))
    return records


def evaluate(records, truth):
    """core::evaluate_alignments semantics on SAM records: a read's best
    record (highest AS, first on ties) is correct when it lies within
    POSITION_TOLERANCE of the true position on the true strand. Recall is
    over seed-findable reads; QNAMEs absent from the input are counted."""
    best = {}
    unknown = 0
    for qname, flag, rname, pos, _mapq, score in records:
        if qname not in truth:
            unknown += 1
            continue
        if qname not in best or score > best[qname][0]:
            best[qname] = (score, rname, pos - 1, bool(flag & 0x10))
    res = dict(total=len(truth), junk=0, findable=0, aligned=0, correct=0,
               misplaced=0, junk_aligned=0, unknown_qnames=unknown)
    contig_start = {}
    for name, (pos, reverse, junk, findable) in truth.items():
        res["findable"] += findable
        hit = best.get(name)
        if junk:
            res["junk"] += 1
            if hit:
                res["junk_aligned"] += 1
                res["aligned"] += 1
            continue
        if not hit:
            continue
        res["aligned"] += 1
        _score, rname, t_begin, hit_reverse = hit
        if rname not in contig_start:
            contig_start[rname] = parse_contig_truth(rname)[0]
        genome_pos = contig_start[rname] + t_begin
        if abs(genome_pos - pos) <= POSITION_TOLERANCE and hit_reverse == reverse:
            res["correct"] += 1
        else:
            res["misplaced"] += 1
    placed = res["correct"] + res["misplaced"]
    res["recall_findable"] = ratio(placed, res["findable"])
    res["placement_precision"] = ratio(res["correct"], placed)
    return res


# ---- program-exposed telemetry -----------------------------------------------

def phase_clusters(events, phase):
    """Group the per-rank 'phase:<phase>' spans of a Chrome trace into runs of
    that phase (spans that overlap in time belong to one barrier-delimited
    phase). Returns [(max rank seconds, mean rank seconds)] per run."""
    spans = sorted((e["ts"], e["dur"]) for e in events
                   if e.get("name") == "phase:" + phase)
    clusters, cur, cur_end = [], [], 0
    for ts, dur in spans:
        if cur and ts > cur_end:
            clusters.append(cur)
            cur = []
        if not cur:
            cur_end = ts + dur
        cur.append(dur)
        cur_end = max(cur_end, ts + dur)
    if cur:
        clusters.append(cur)
    return [(max(c) / 1e6, statistics.mean(c) / 1e6) for c in clusters]


def shard_imbalance(events):
    """Sum over batches of the slowest shard's align wall over the sum of
    the mean shard wall (the 'shard <s> align' spans inside each
    'shard.batch' span); 1.0 without shards."""
    batches = [(e["ts"], e["ts"] + e["dur"]) for e in events
               if e.get("name") == "shard.batch"]
    shard_spans = [(e["ts"], e["dur"]) for e in events
                   if re.fullmatch(r"shard \d+ align", e.get("name", ""))]
    worst = mean = 0.0
    for lo, hi in batches:
        walls = [d for ts, d in shard_spans if lo <= ts <= hi]
        if walls:
            worst += max(walls)
            mean += statistics.mean(walls)
    return worst / mean if mean else 1.0


def parse_prometheus(text):
    """[(name, {label: value}, value)] from Prometheus text exposition."""
    series = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = re.fullmatch(r"([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)",
                         line)
        if not m:
            continue
        labels = dict(re.findall(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"',
                                 m.group(2) or ""))
        series.append((m.group(1), labels, float(m.group(3))))
    return series


def parse_metrics_json(obj):
    """The same series list from the CLI's --metrics JSON dump."""
    return [(s["name"], s["labels"], float(s["value"]))
            for kind in ("counters", "gauges") for s in obj.get(kind, [])]


def metric_sum(series, name, **labels):
    """Sum of every `name` series matching `labels`; per-tenant copies of
    process-wide series are skipped so nothing is counted twice."""
    return sum(v for n, l, v in series
               if n == name and "tenant" not in l
               and all(l.get(k) == want for k, want in labels.items()))


STAT_FIELDS = {
    "reads processed": "reads", "reads aligned": "aligned",
    "alignments reported": "records", "exact-match reads": "exact",
    "seed lookups": "lookups", "lookups truncated": "truncated",
}


def parse_cli_stats(text):
    """Sums of the per-batch --stats blocks the CLI prints to stderr."""
    sums = dict.fromkeys(list(STAT_FIELDS.values()) + ["sw_calls", "sw_cells"], 0)
    for line in text.splitlines():
        m = re.match(r"Smith-Waterman calls\s+(\d+)\s+\((\d+) DP cells\)", line)
        if m:
            sums["sw_calls"] += int(m.group(1))
            sums["sw_cells"] += int(m.group(2))
            continue
        m = re.match(r"([a-zA-Z -]+?)\s{2,}(\d+)", line)
        if m and m.group(1) in STAT_FIELDS:
            sums[STAT_FIELDS[m.group(1)]] += int(m.group(2))
    return sums


# ---- the benchmark's own spans --------------------------------------------

class SpanLog:
    """Chrome-trace spans around every call the benchmark makes."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.events = []
        self.lock = threading.Lock()

    def add(self, name, start, end, tid, **args):
        with self.lock:
            self.events.append(dict(
                name=name, cat="perfbench", ph="X", pid=2, tid=tid,
                ts=round((start - self.t0) * 1e6),
                dur=round((end - start) * 1e6), args=args))

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"traceEvents": self.events}, f)


# ---- processes -------------------------------------------------------------

def keep_measuring(start, seconds, done):
    """Start another sample while half a mean sample still fits in the
    budget, so a run ends near --seconds; always take at least one."""
    if not done:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


class Failure(Exception):
    """An operation of the workload failed (counted into failed/attempted)."""


def run_timed(argv, timeout=CLI_TIMEOUT_S):
    """Run one program process and time it from outside. Returns wall
    seconds, CPU seconds and peak RSS (wait4), the exit code, and its stderr
    lines each stamped with the wall offset at which it arrived. The process
    is killed at `timeout`."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    lines = []
    try:
        for line in proc.stderr:
            lines.append((time.perf_counter() - start, line.rstrip("\n")))
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dict(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                lines=lines, timed_out=wall >= timeout)


def build():
    """Configure (once) and build the binaries; build output goes to stderr."""
    missing = [p for p in REQUIRED_SOURCES if not os.path.isfile(p)]
    if missing:
        raise SystemExit(f"perfbench: sources missing from {ROOT}: "
                         f"{', '.join(missing)}")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j4", "--target",
                    "meraligner_cli", "meralignerd", "perfbench_gen"],
                   stdout=sys.stderr, check=True)


Inputs = collections.namedtuple("Inputs", "dir contigs one batches truth")


def generate(wl, seed, out_dir):
    """Write the seeded workload files; returns their paths and the truth."""
    subprocess.run([GEN, "--shape", wl["shape"],
                    "--genome-len", str(wl["genome_len"]),
                    "--depth", str(wl["depth"]), "--seed", str(seed),
                    "--batches", str(wl["batches"]), "--k", str(wl["k"]),
                    "--out", out_dir], stdout=sys.stderr, check=True)
    batches = sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir)
                     if f.startswith("batch_"))
    return Inputs(out_dir, os.path.join(out_dir, "contigs.fa"),
                  os.path.join(out_dir, "one.fastq"), batches,
                  load_truth(os.path.join(out_dir, "truth.tsv")))


# ---- results ---------------------------------------------------------------

class Results:
    """Samples, failure accounting and correctness of one benchmark run."""

    def __init__(self, wl):
        self.wl = wl
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def attempt(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def check_sam(self, records, truth, what):
        """Gate one run's SAM on the ground truth; returns the evaluation."""
        ev = evaluate(records, truth)
        if ev["unknown_qnames"]:
            self.problems.append(f"{what}: {ev['unknown_qnames']} SAM records "
                                 "name reads absent from the input")
        if ev["recall_findable"] < self.wl["min_recall"]:
            self.problems.append(f"{what}: recall_findable "
                                 f"{ev['recall_findable']:.4f} < "
                                 f"{self.wl['min_recall']}")
        if ev["placement_precision"] < self.wl["min_precision"]:
            self.problems.append(f"{what}: placement_precision "
                                 f"{ev['placement_precision']:.4f} < "
                                 f"{self.wl['min_precision']}")
        self.add("recall_findable", ev["recall_findable"])
        self.add("placement_precision", ev["placement_precision"])
        self.add("records", len(records))
        return ev

    def median(self, name):
        return statistics.median(self.samples[name])


def read_sam_file(path):
    with open(path) as f:
        return parse_sam_records(f.read())


def batch_latencies(lines):
    """One-shot per-batch latency: from the previous event (index built or
    previous batch done) to the CLI's live 'batch i/n' completion line."""
    prev, out = None, []
    for t, line in lines:
        if "index built" in line:
            prev = t
        elif re.search(r"\bbatch \d+/\d+ ", line) and prev is not None:
            out.append(t - prev)
            prev = t
    return out


# ---- one-shot CLI workloads ------------------------------------------------

def run_cli_workload(wl, res, work, inp, seconds, trace, spans):
    base = [CLI, "--targets", inp.contigs] + wl["flags"]
    reads_args = [a for b in inp.batches for a in ("--reads", b)]
    truth = inp.truth
    n_reads = len(truth)

    def cli(extra, tag):
        t = time.perf_counter()
        r = run_timed(base + extra)
        spans.add("cli " + tag, t, t + r["wall"], 1, argv=" ".join(extra),
                  code=r["code"])
        if not res.attempt(r["code"] == 0 and not r["timed_out"],
                           f"{tag}: exit {r['code']}"):
            tail = "\n".join(l for _, l in r["lines"][-5:])
            raise Failure(f"{tag} failed (exit {r['code']}):\n{tail}")
        return r

    one_sam = os.path.join(work, "one.sam")
    for i in range(SETUP_REPEATS):
        r = cli(["--reads", inp.one, "--out", one_sam,
                 "--quiet"], f"setup{i}")
        res.add("setup_s", r["wall"])
        if any(rec[0] not in truth for rec in read_sam_file(one_sam)):
            res.problems.append(f"setup{i}: SAM names a read absent from the input")

    out_sam = os.path.join(work, "out.sam")
    start = time.perf_counter()
    i = 0
    while keep_measuring(start, seconds, i):
        r = cli(reads_args + ["--out", out_sam], f"run{i}")
        res.add("wall_s", r["wall"])
        res.add("reads_per_s", n_reads / r["wall"])
        res.add("cpu_s", r["cpu"])
        res.add("peak_rss_mb", r["rss_mb"])
        for lat in batch_latencies(r["lines"]):
            res.add("batch_latency_ms", lat * 1e3)
        res.add("sam_mb", os.path.getsize(out_sam) / 1e6)
        res.check_sam(read_sam_file(out_sam), truth, f"run{i}")
        i += 1
    os.remove(out_sam)
    if not trace:
        return {}

    tdir = os.path.join(work, "trace")
    os.makedirs(tdir, exist_ok=True)
    tr = cli(reads_args + ["--out", out_sam, "--stats",
                           "--trace", os.path.join(tdir, "program_trace.json"),
                           "--metrics", os.path.join(tdir, "metrics.json")],
             "traced")
    res.check_sam(read_sam_file(out_sam), truth, "traced")
    os.remove(out_sam)
    return program_layers(tr, tdir, untraced_wall=res.median("wall_s"))


def program_layers(run, tdir, untraced_wall):
    """Per-layer metrics from a traced CLI run: its trace spans, metrics
    dump and --stats blocks. Only measured seconds are used."""
    with open(os.path.join(tdir, "program_trace.json")) as f:
        events = json.load(f)["traceEvents"]
    with open(os.path.join(tdir, "metrics.json")) as f:
        series = parse_metrics_json(json.load(f))
    stats = parse_cli_stats("\n".join(l for _, l in run["lines"]))
    align = phase_clusters(events, "align")
    align_cpu = metric_sum(series, "mera_phase_cpu_seconds_total", phase="align")
    m = {
        "seq.reads_load_s": metric_sum(series, "mera_prefetch_load_seconds_total"),
        "exec.prefetch_stall_s": metric_sum(series, "mera_prefetch_stall_seconds_total"),
        "dht.index_build_s": sum(mx for mx, _ in phase_clusters(events, "index.build")),
        "dht.lookups_per_read": ratio(stats["lookups"], stats["reads"]),
        "dht.truncated_frac": ratio(stats["truncated"], stats["lookups"]),
        "core.index_mark_s": sum(mx for mx, _ in phase_clusters(events, "index.mark")),
        "core.align_wall_s": sum(mx for mx, _ in align),
        "core.rank_imbalance": ratio(sum(mx for mx, _ in align),
                                     sum(mean for _, mean in align)),
        "core.align_cpu_s": align_cpu,
        "core.exact_frac": ratio(stats["exact"], stats["aligned"]),
        "align.sw_calls": stats["sw_calls"],
        "align.cells_per_read": ratio(stats["sw_cells"], stats["reads"]),
        "align.sw_yield": ratio(stats["records"] - stats["exact"], stats["sw_calls"]),
        "align.cells_per_cpu_s": ratio(stats["sw_cells"], align_cpu),
        "obs.trace_overhead_frac": run["wall"] / untraced_wall - 1.0,
    }
    m.update(cache_layers(series))
    occupancy = [v for n, l, v in series if n == "mera_sw_lane_occupancy"]
    if occupancy:
        log(f"  align.lane_occupancy = {statistics.mean(occupancy)} fraction "
            "(batch engine only)")
    m["shard.imbalance"] = shard_imbalance(events)
    return m


def cache_layers(series):
    def frac(which):
        hits = metric_sum(series, "mera_cache_hits_total", cache=which)
        misses = metric_sum(series, "mera_cache_misses_total", cache=which)
        return ratio(hits, hits + misses)
    return {
        "cache.seed_hit_frac": frac("seed"),
        "cache.target_hit_frac": frac("target"),
        "cache.seed_evictions": metric_sum(series, "mera_cache_evictions_total",
                                           cache="seed"),
    }


# ---- the daemon workload ---------------------------------------------------

FRAME = struct.Struct("=IIQ")
MAGIC = 0x5653524D  # "MRSV"
HELLO, BATCH, METRICS_REQ, STATS_REQ, GOODBYE = 1, 2, 3, 4, 5
SAM, METRICS, STATS = 17, 19, 20  # an Error frame (18) is a failed request


class Conn:
    """One client connection speaking serve::framing; every read has a
    deadline, so a stuck daemon is a failure, not a hang."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(REQUEST_DEADLINE_S)
        self.sock.connect(path)

    def send(self, ftype, payload=b""):
        self.sock.sendall(FRAME.pack(MAGIC, ftype, len(payload)) + payload)

    def _exact(self, n):
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(min(n - len(buf), 1 << 20))
            if not chunk:
                raise Failure("daemon closed the connection mid-reply")
            buf += chunk
        return bytes(buf)

    def recv(self):
        magic, ftype, n = FRAME.unpack(self._exact(FRAME.size))
        if magic != MAGIC:
            raise Failure(f"bad frame magic {magic:#x}")
        return ftype, self._exact(n)

    def request(self, ftype, want, payload=b""):
        self.send(ftype, payload)
        got, body = self.recv()
        if got != want:
            raise Failure(f"expected frame {want}, got {got}: {body[:200]!r}")
        return body

    def close(self):
        self.sock.close()


class Daemon:
    """A meralignerd process: spawned, waited on until its socket accepts,
    and always stopped (SIGTERM, then SIGKILL) with socket and cache dir
    removed, however the run ends."""

    def __init__(self, wl, work, targets, name):
        self.name = name
        self.sock_path = os.path.join(work, f"{name}.sock")
        self.cache_dir = os.path.join(work, f"{name}.cache")
        self.log_path = os.path.join(work, f"{name}.log")
        self.argv = [DAEMON, "--targets", targets,
                     "--socket", self.sock_path] + wl["flags"] + [
                     "--cache-dir", self.cache_dir,
                     "--autosave", str(wl["autosave_s"])]
        self.proc = None
        self.usage = None

    def start(self):
        """Spawn and return seconds until the socket accepts a connection."""
        os.makedirs(self.cache_dir, exist_ok=True)
        t0 = time.perf_counter()
        with open(self.log_path, "w") as logf:
            self.proc = subprocess.Popen(self.argv, stdout=logf, stderr=logf)
        while True:
            if self.proc.poll() is not None:
                raise Failure(f"daemon exited with {self.proc.returncode} "
                              f"before accepting (see {self.log_path})")
            if time.perf_counter() - t0 > ACCEPT_DEADLINE_S:
                raise Failure("daemon did not accept within the deadline")
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.sock_path)
                return time.perf_counter() - t0
            except OSError:
                time.sleep(0.002)
            finally:
                probe.close()

    def stop(self):
        """SIGTERM (graceful drain), SIGKILL past the deadline; returns the
        exit code (None if it never started). Always removes the socket and
        cache dir."""
        try:
            if self.proc and self.proc.returncode is None:
                self.proc.send_signal(signal.SIGTERM)
                deadline = time.perf_counter() + REQUEST_DEADLINE_S
                while True:
                    pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.perf_counter() > deadline:
                        self.proc.kill()
                        _, status, usage = os.wait4(self.proc.pid, 0)
                        break
                    time.sleep(0.01)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.usage = usage
        finally:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            if os.path.exists(self.sock_path):
                os.remove(self.sock_path)
        return self.proc.returncode if self.proc else None


def serve_pass(wl, res, daemon, payloads, spans, pass_idx):
    """Stream every batch through `tenants` closed-loop connections, each
    waiting for its Sam frame before sending its next batch."""
    n_ten = wl["tenants"]
    latencies, sent, received = [], [], []
    sam_bytes = [bytearray() for _ in range(n_ten)]
    errors = []
    barrier = threading.Barrier(n_ten)
    lock = threading.Lock()

    def tenant(t):
        name = f"t{t}"
        try:
            conn = Conn(daemon.sock_path)
        except OSError as e:
            errors.append(f"{name}: connect: {e}")
            barrier.abort()
            return
        c0 = time.perf_counter()
        try:
            conn.send(HELLO, name.encode())
            barrier.wait()
            for b in range(t, len(payloads), n_ten):
                req = f"p{pass_idx}.b{b}"
                t_send = time.perf_counter()
                ok = False
                try:
                    body = conn.request(BATCH, SAM, payloads[b])
                    sam_bytes[t] += body
                    ok = True
                except (Failure, OSError) as e:
                    errors.append(f"{name} {req}: {e}")
                t_recv = time.perf_counter()
                spans.add("request", t_send, t_recv, 10 + t, req=req,
                          tenant=name, ok=ok)
                with lock:
                    res.attempt(ok, f"{name} {req}")
                    if ok:
                        latencies.append((t_recv - t_send) * 1e3)
                        sent.append(t_send)
                        received.append(t_recv)
                if not ok:
                    return
            conn.send(GOODBYE)
        except (Failure, OSError, threading.BrokenBarrierError) as e:
            errors.append(f"{name}: {e}")
            barrier.abort()  # no tenant waits for one that failed before it
        finally:
            conn.close()
            spans.add("connection " + name, c0, time.perf_counter(), 10 + t,
                      tenant=name)

    threads = [threading.Thread(target=tenant, args=(t,)) for t in range(n_ten)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise Failure("; ".join(errors[:3]))
    records = []
    for t, buf in enumerate(sam_bytes):
        text = buf.decode()
        if not text.startswith("@HD"):
            raise Failure(f"tenant t{t}: first Sam frame carries no header")
        records += parse_sam_records(text)
    wall = max(received) - min(sent)
    return wall, latencies, records, sum(len(b) for b in sam_bytes)


def probe_daemon(daemon):
    """MetricsReq + StatsReq on a separate connection."""
    conn = Conn(daemon.sock_path)
    try:
        conn.send(HELLO, b"perfbench-probe")
        metrics = conn.request(METRICS_REQ, METRICS).decode()
        stats = json.loads(conn.request(STATS_REQ, STATS))
        conn.send(GOODBYE)
    finally:
        conn.close()
    return parse_prometheus(metrics), stats


def stop_daemon(d, res):
    """Stop a daemon; a start failure or an unclean exit is a failure."""
    started = d.proc is not None
    code = d.stop()
    if not res.attempt(started and code == 0, f"daemon {d.name} exit {code}"):
        raise Failure(f"daemon {d.name} failed (exit {code}, see {d.log_path})")


def run_serve_workload(wl, res, work, inp, seconds, trace, spans):
    truth = inp.truth
    payloads = []
    for b in inp.batches:
        with open(b, "rb") as f:
            payloads.append(f.read())
    n_reads = len(truth)
    for i in range(SETUP_REPEATS):
        d = Daemon(wl, work, inp.contigs, f"setup{i}")
        try:
            t0 = time.perf_counter()
            setup = d.start()
            spans.add("daemon start", t0, t0 + setup, 0, daemon=d.name)
            res.add("setup_s", setup)
        finally:
            stop_daemon(d, res)

    start = time.perf_counter()
    probe = None
    i = 0
    while keep_measuring(start, seconds, i):
        d = Daemon(wl, work, inp.contigs, f"pass{i}")
        try:
            d.start()
            wall, lats, records, nbytes = serve_pass(wl, res, d, payloads,
                                                     spans, i)
            if trace and probe is None:
                probe = probe_daemon(d)
        finally:
            stop_daemon(d, res)
        res.add("wall_s", wall)
        res.add("reads_per_s", n_reads / wall)
        res.add("cpu_s", d.usage.ru_utime + d.usage.ru_stime)
        res.add("peak_rss_mb", d.usage.ru_maxrss / 1024.0)
        res.samples.setdefault("batch_latency_ms", []).extend(lats)
        res.add("sam_mb", nbytes / 1e6)
        res.check_sam(records, truth, f"pass{i}")
        i += 1
    if not trace:
        return {}
    return serve_layers(wl, res, work, inp, probe, spans)


def serve_layers(wl, res, work, inp, probe, spans):
    """Per-layer metrics of the serve workload. Daemon-side ones come from
    its MetricsReq/StatsReq frames; the phase spans and --stats counts the
    daemon does not expose come from a traced CLI run over the same batches
    with the daemon's topology flags."""
    series, stats = probe
    tdir = os.path.join(work, "trace")
    os.makedirs(tdir, exist_ok=True)
    out_sam = os.path.join(work, "cli.sam")
    untraced = ([CLI, "--targets", inp.contigs] +
                wl["flags"] + [a for b in inp.batches for a in ("--reads", b)] +
                ["--out", out_sam])
    t = time.perf_counter()
    run = run_timed(untraced + [
        "--stats", "--trace", os.path.join(tdir, "program_trace.json"),
        "--metrics", os.path.join(tdir, "metrics.json")])
    spans.add("cli traced", t, t + run["wall"], 1, code=run["code"])
    if not res.attempt(run["code"] == 0, f"traced CLI exit {run['code']}"):
        raise Failure(f"traced CLI run failed (exit {run['code']})")
    res.check_sam(read_sam_file(out_sam), inp.truth, "traced CLI")
    # obs.trace_overhead_frac compares the traced CLI with an untraced one.
    t = time.perf_counter()
    quiet = run_timed(untraced)
    spans.add("cli untraced", t, t + quiet["wall"], 1, code=quiet["code"])
    if not res.attempt(quiet["code"] == 0, f"untraced CLI exit {quiet['code']}"):
        raise Failure(f"untraced CLI run failed (exit {quiet['code']})")
    os.remove(out_sam)
    m = program_layers(run, tdir, untraced_wall=quiet["wall"])

    tenants = [t for t in stats["tenants"] if t["name"] != "perfbench-probe"]
    align_cpu = metric_sum(series, "mera_phase_cpu_seconds_total", phase="align")
    cells = metric_sum(series, "mera_sw_cells_total")
    calls = metric_sum(series, "mera_sw_calls_total")
    reads = metric_sum(series, "mera_reads_processed_total")
    lat_total_s = sum(res.samples["batch_latency_ms"][:len(inp.batches)]) / 1e3
    m.update(cache_layers(series))
    m.update({
        "core.align_cpu_s": align_cpu,
        "align.sw_calls": calls,
        "align.cells_per_read": ratio(cells, reads),
        "align.cells_per_cpu_s": ratio(cells, align_cpu),
        "cache.autosaves": metric_sum(series, "mera_serve_autosaves_total"),
        "serve.gate_wait_frac": ratio(sum(t["gate_wait_s"] for t in tenants),
                                      lat_total_s),
        "serve.errors": sum(t["errors"] for t in tenants),
    })
    return m


# ---- entry point ----------------------------------------------------------

def summarize(res, layers, trace):
    s = res.samples
    lat = s.get("batch_latency_ms", [])
    end_to_end = {
        "wall_s": res.median("wall_s"),
        "reads_per_s": res.median("reads_per_s"),
        "setup_s": res.median("setup_s"),
        "cpu_s": res.median("cpu_s"),
        "peak_rss_mb": res.median("peak_rss_mb"),
        "batch_latency_p50_ms": statistics.median(lat) if lat else 0.0,
        "recall_findable": res.median("recall_findable"),
        "placement_precision": res.median("placement_precision"),
    }
    for name, unit in END_TO_END:
        n = len(lat) if name.startswith("batch_latency") else len(
            s.get(name, []))
        log(f"  {name} = {end_to_end[name]:.6g} {unit} (median of {n})")
    log("  wall_s samples: " + " ".join(f"{v:.4g}" for v in s["wall_s"]))
    p90 = tail_percentile(lat, 0.9)
    log(f"  batch_latency_p90_ms = "
        + (f"{p90:.6g} ms" if p90 is not None else "not reported")
        + f" ({len(lat)} samples, needs 10 beyond the p90)")
    log(f"  failed_frac = {ratio(res.failed, res.attempted):.6g} "
        f"({res.failed} of {res.attempted} operations)")
    if not trace:
        return {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END}
    layers["core.records_spread"] = rel_spread(s["records"])
    layers.setdefault("cache.autosaves", 0.0)
    layers.setdefault("serve.gate_wait_frac", 0.0)
    layers.setdefault("serve.errors", 0.0)
    layers["serve.bytes_out_mb"] = res.median("sam_mb")
    for name, unit in PER_LAYER:
        log(f"  {name} = {layers[name]:.6g} {unit}")
    return {k: {"value": float(layers[k]), "unit": u} for k, u in PER_LAYER}


def run_workload(name, seed, seconds, trace, smoke):
    wl = dict(WORKLOADS[name])
    if smoke:
        wl.update(SMOKE[name])
    work = os.path.join(WORK_DIR, f"{name}-seed{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = SpanLog()
    res = Results(wl)
    t = time.perf_counter()
    inp = generate(wl, seed, os.path.join(work, "inputs"))
    spans.add("generate", t, time.perf_counter(), 0, seed=seed)
    log(f"{name} seed {seed}: {len(inp.truth)} reads in {len(inp.batches)} "
        "batches")
    runner = run_cli_workload if wl["kind"] == "cli" else run_serve_workload
    try:
        layers = runner(wl, res, work, inp, seconds, trace, spans)
    except Failure as e:
        log(f"{name}: FAILED: {e}")
        res.problems.append(str(e))
        layers = None
    finally:
        shutil.rmtree(inp.dir, ignore_errors=True)  # keep only logs, traces
    if trace:
        spans.write(os.path.join(work, "bench_trace.json"))
        log(f"  traces: {work}/bench_trace.json, {work}/trace/")
    if layers is None:
        return dict(correct=False, attempted=max(res.attempted, 1),
                    failed=max(res.failed, 1), metrics={})
    metrics = summarize(res, layers, trace)
    correct = not res.problems and res.failed == 0
    log(f"  correct = {correct}" + "".join(f"\n    {p}" for p in res.problems))
    return dict(correct=correct, attempted=res.attempted, failed=res.failed,
                metrics=metrics)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per workload (default 35, 2 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs: every workload in seconds")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else 35.0
    os.chdir(ROOT)
    # A SIGTERM to the benchmark still stops the daemon (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
    except subprocess.CalledProcessError as e:
        log(f"perfbench: build failed: {e}")
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        out = run_workload(name, args.seed, args.seconds, args.trace,
                           args.smoke)
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
