"""Cold-honest, verdict-checked benchmark of the ``repro`` verifier.

    python3 verdictbench/run.py --workload check-cold --seed 1 \
        --seconds 25 --trace 0

Run from the repository root.  Three workloads (see ``BENCHMARK.json``
for why each exists):

* ``check-cold`` — a fresh process checks distinct seeded pairs through
  ``Session.check``;
* ``serve-mixed`` — a ``repro serve`` daemon driven in a closed loop over
  two connections by a skewed check/optimize stream;
* ``disprove-bound`` — a fresh process runs ``QueryHandle.disprove`` at a
  bound larger than the default, with no instance budget.

Every run generates its inputs from ``--seed``, labels them with stdlib
``sqlite3`` (never with ``repro``), times ``--seconds`` of work in a fresh
process, checks every verdict against its label and replays every
counterexample in ``sqlite3``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the workload untraced for a third of the
time, then the same operations traced and untraced again, each in a fresh
process, and reports the per-layer metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import socket
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from corpus import (Corpus, Oracle, Pair, TABLE_SPECS,  # noqa: E402
                    replay_differs)

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

#: set-up probes per run (their median is ``setup_s``/``oneshot_s``),
#: spread evenly over the timed phase: the host's speed drifts within
#: seconds, and probes taken back to back sample one moment of it.
SETUP_PROBES = 12
#: the larger-than-default bound of ``disprove-bound`` (rows, multiplicity).
DISPROVE_BOUND = (4, 2)
#: serve request pattern, one letter per request: h = hot (repeated)
#: check, c = cold (first-time) check, o = optimize.
SERVE_PATTERN = "hhchhchhhohhchhchhhc"
SERVE_CONNECTIONS = 2
#: cardinalities the serve ``optimize`` requests cost plans under.
SERVE_ROWS = {"R": 1000, "S": 100, "T": 10}
#: operations per second each run's corpus is sized for (about 1.6x what
#: a 2-core host does today); a faster program runs out of pairs early.
MAX_RATE = {"check-cold": 160, "serve-mixed": 300, "disprove-bound": 60}
#: operations after which the measured process reports its peak RSS —
#: well inside what one run completes, so memory compares at equal work.
RSS_AT = {"check-cold": 400, "serve-mixed": 2000, "disprove-bound": 200}

END_TO_END = {
    "setup_s": "s", "oneshot_s": "s",
    "latency_p50_ms": "ms", "ops_per_s": "1/s",
    "proved_p50_ms": "ms", "refuted_p50_ms": "ms",
    "decided_share": "share", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.python_s": "s", "setup.import_s": "s", "setup.session_s": "s",
    "setup.daemon_s": "s",
    "sql.compile_ms": "ms", "sql.queries": "count",
    "core.normalize_ms": "ms", "core.normalize_hit_ratio": "ratio",
    "core.interned_nodes": "count",
    "pipeline.alpha_hash_ms": "ms", "pipeline.conjunctive_ms": "ms",
    "pipeline.prover_ms": "ms", "pipeline.prover_steps": "count",
    "pipeline.decided_by.alpha-hash": "count",
    "pipeline.decided_by.conjunctive": "count",
    "pipeline.decided_by.prover": "count",
    "pipeline.decided_by.disprover": "count",
    "pipeline.decided_by.unknown": "count",
    "pipeline.disprover_ms": "ms", "engine.compile_ms": "ms",
    "disprover.search_ms": "ms", "analysis.infer_ms": "ms",
    "disprover.instances": "count", "disprover.instances_per_s": "1/s",
    "disprover.witness_ratio": "ratio", "disprover.exhausted": "count",
    "session.self_ms": "ms",
    "cache.hits": "count", "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "store.appends": "count", "store.shard_hits": "count",
    "serve.handle_ms": "ms", "serve.overhead_ms": "ms",
    "serve.hit_share": "share", "serve.repeat_share": "share",
    "serve.pipeline_runs": "count", "serve.dedup_followers": "count",
    "serve.errors": "count",
    "optimizer.request_p50_ms": "ms", "optimizer.plan_cost_ratio": "ratio",
    "optimizer.search_ms": "ms", "optimizer.certify_ms": "ms",
    "optimizer.saturate_iterations": "count",
    "optimizer.plans_explored": "count",
    "verdicts.ops": "count", "verdicts.wrong": "count",
    "latency.tail_ms": "ms", "latency.proved_tail_ms": "ms",
    "latency.refuted_tail_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (or the program misbehaved)."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


#: the standard percentiles, in hundredths of a percent, a tail may use.
PERCENTILES = (5000, 9000, 9500, 9900, 9990, 9999)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) at the highest standard percentile that has at
    least ten samples beyond it (nearest rank); the maximum when there
    are too few samples for even the median."""
    n = len(values)
    fitting = [q for q in PERCENTILES if n * (10000 - q) >= 10 * 10000]
    if not fitting:
        return (max(values) if values else 0.0), 100.0
    q = fitting[-1]
    rank = -(-n * q // 10000)  # ceil(n * q / 10000), 1-based
    return sorted(values)[rank - 1], q / 100


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Work:
    """Scratch files of one run, inside the checkout, removed at exit."""

    def __init__(self) -> None:
        self.dir = os.path.join(ROOT, ".verdictbench_work", str(os.getpid()))
        os.makedirs(self.dir, exist_ok=True)
        self._n = 0

    def path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.dir, f"{self._n:03d}-{stem}")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_KERNEL", None)
    return env


class Child:
    """A worker process; reaped with ``wait4`` for its peak RSS."""

    def __init__(self, work: Work, job: dict, *, stdout=None,
                 stdin=None) -> None:
        self.job_path = work.path("job.json")
        self.out_path = work.path("out.json")
        with open(self.job_path, "w") as f:
            json.dump(job, f)
        self.log_path = work.path("stderr.txt")
        self._log = open(self.log_path, "wb")
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, self.job_path, self.out_path],
            stdout=stdout if stdout is not None else subprocess.DEVNULL,
            stdin=stdin if stdin is not None else subprocess.DEVNULL,
            stderr=self._log, env=_env(), cwd=ROOT)
        self.maxrss_mb = 0.0

    def wait(self, timeout: float) -> dict:
        """Reap the child (killing it after ``timeout``) → its output."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() >= deadline:
                os.kill(self.proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._log.close()
        for pipe in (self.proc.stdout, self.proc.stdin):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:  # unflushed bytes to a reader that is gone
                    pass
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        if self.proc.returncode != 0:
            with open(self.log_path, "rb") as f:
                err = f.read().decode(errors="replace")[-2000:]
            raise BenchError(f"worker exited {self.proc.returncode}: {err}")
        with open(self.out_path) as f:
            return json.load(f)

    def kill(self) -> None:
        """Stop and reap the child if :meth:`wait` has not (the process
        is signalled directly: ``Popen.kill`` would reap it first)."""
        if self.proc.returncode is None:
            os.kill(self.proc.pid, signal.SIGKILL)
            try:
                self.wait(10.0)
            except BenchError:
                pass


# ---------------------------------------------------------------------------
# Verdict checking
# ---------------------------------------------------------------------------

class Tally:
    """Verdict outcomes checked against the sqlite3 labels."""

    def __init__(self) -> None:
        self.wrong = 0
        self.replays = 0
        self.errors = 0

    def verdict(self, pair: Pair, status: str, witness: Optional[dict]
                ) -> None:
        if status == "PROVED" and not pair.equivalent:
            self.wrong += 1
        if status == "DISPROVED":
            if pair.equivalent:
                self.wrong += 1
            elif witness is not None:
                self.replays += 1
                if not replay_differs(witness, pair.sql1, pair.sql2):
                    self.wrong += 1


# ---------------------------------------------------------------------------
# Session workloads: check-cold and disprove-bound
# ---------------------------------------------------------------------------

def session_job(mode: str, pairs: List[Pair], tables: Sequence[str],
                seconds: Optional[float], limit: Optional[int],
                trace: bool, pauses: Sequence[float] = ()) -> dict:
    return {"mode": mode, "tables": list(tables), "seconds": seconds,
            "pauses": list(pauses),
            "limit": limit, "trace": trace, "rss_at": RSS_AT[
                "check-cold" if mode == "check" else "disprove-bound"],
            "pairs": [[p.sql1, p.sql2] for p in pairs],
            "bound": list(DISPROVE_BOUND)}


def run_session(work: Work, mode: str, pairs: List[Pair],
                tables: Sequence[str], seconds: Optional[float],
                limit: Optional[int] = None, trace: bool = False
                ) -> Tuple[dict, Child]:
    child = Child(work, session_job(mode, pairs, tables, seconds, limit,
                                    trace))
    try:
        out = child.wait(timeout=(seconds or 0) + 60.0)
    finally:
        child.kill()
    out["t_spawn"] = child.t_spawn
    return out, child


def session_workload(args, work: Work) -> Dict[str, Any]:
    if args.workload == "check-cold":
        mode, tables = "check", TABLE_SPECS
        corpus = Corpus(args.seed)
    else:
        mode, tables = "disprove", TABLE_SPECS[:2]
        # Joins of at least two tables: over one table the space is 81
        # instances, and with those in the mix the median exhaustive
        # search would sit on the edge between two clusters of costs.
        corpus = Corpus(args.seed, tables=("R", "S"), modes=("narrow",),
                        min_width=2)
    pairs = corpus.take(int(MAX_RATE[args.workload] * args.seconds) + 50)
    corpus.close()

    if args.trace:
        base, _ = run_session(work, mode, pairs, tables, args.seconds / 3)
        n = len(base["ops"])
        traced, _ = run_session(work, mode, pairs, tables, None, limit=n,
                                trace=True)
        again, _ = run_session(work, mode, pairs, tables, None, limit=n)
        tally = Tally()
        for out in (base, traced, again):
            for pair, op in zip(pairs, out["ops"]):
                tally.verdict(pair, op[1], op[3])
        layers = session_layers(traced, n)
        layers.update(setup_layers(base))
        layers.update(latency_metrics(*split_ops(mode, base["ops"],
                                                 pairs)[:3]))
        walls = [out["t_end"] - out["t_ready"]
                 for out in (base, traced, again)]
        layers["trace.overhead_ratio"] = overhead_ratio(*walls)
        layers["verdicts.wrong"] = tally.wrong
        return finish(args, layers, PER_LAYER, 3 * n, tally)

    setups, oneshots = [], []
    probes = iter(quick_pairs(pairs, equivalent=mode == "check"))

    def probe() -> None:
        out, _ = run_session(work, mode, [next(probes)], tables, None)
        setups.append(out["t_ready"] - out["t_spawn"])
        oneshots.append(out["t_first"] - out["t_spawn"])

    main, child = run_probed(work, session_job(
        mode, pairs, tables, args.seconds, None, False,
        pauses=probe_offsets(args.seconds)), probe)
    setups.append(main["t_ready"] - main["t_spawn"])

    ops = main["ops"]
    tally = Tally()
    for pair, op in zip(pairs, ops):
        tally.verdict(pair, op[1], op[3])
    latencies, proved, refuted, decided = split_ops(mode, ops, pairs)
    metrics = {
        "setup_s": p50(setups), "oneshot_s": p50(oneshots),
        "ops_per_s": len(ops) / (main["t_end"] - main["t_ready"]
                                 - main["paused"]),
        "decided_share": decided, "peak_rss_mb": rss_at(main, child),
    }
    metrics.update(latency_metrics(latencies, proved, refuted))
    return finish(args, metrics, END_TO_END, len(ops), tally)


def probe_offsets(seconds: float) -> List[float]:
    """When the set-up probes run: the middle of each of ``SETUP_PROBES``
    equal slices of the timed phase."""
    return [(i + 0.5) * seconds / SETUP_PROBES
            for i in range(SETUP_PROBES)]


def run_probed(work: Work, job: dict, probe: Callable[[], None]
               ) -> Tuple[dict, Child]:
    """Run the timed session process, calling ``probe`` at each of its
    pauses (while it waits, so the two never compete for a core)."""
    child = Child(work, job, stdout=subprocess.PIPE, stdin=subprocess.PIPE)
    try:
        deadline = time.monotonic() + job["seconds"] + 60.0 * (
            1 + len(job["pauses"]))
        while True:
            ready, _, _ = select.select([child.proc.stdout], [], [],
                                        max(deadline - time.monotonic(), 0))
            if not ready:
                raise BenchError("timed worker stalled")
            line = child.proc.stdout.readline()
            if not line:
                break  # the worker has finished (or died: wait says which)
            if line != b"pause\n":
                raise BenchError(f"unexpected worker output {line!r}")
            probe()
            child.proc.stdin.write(b"\n")
            child.proc.stdin.flush()
        out = child.wait(timeout=60.0)
    finally:
        child.kill()
    out["t_spawn"] = child.t_spawn
    return out, child


def overhead_ratio(before: float, traced: float, after: float) -> float:
    """Traced wall over untraced wall for the same operations.  The
    untraced wall is the mean of one run before and one after the traced
    one, so a drift in host speed over the three runs cancels."""
    return traced / ((before + after) / 2)


def split_ops(mode: str, ops: List[list], pairs: List[Pair]
              ) -> Tuple[List[float], List[float], List[float], float]:
    """Latencies (ms) of all, "proved" and "refuted" operations, and the
    decided share."""
    latencies = [op[0] * 1e3 for op in ops]
    if mode == "check":
        proved = [op[0] * 1e3 for op in ops if op[1] == "PROVED"]
        refuted = [op[0] * 1e3 for op in ops if op[1] != "PROVED"]
        decided = sum(op[1] != "UNKNOWN" for op in ops) / len(ops)
    else:
        # No witness means the whole bound was exhausted (the search is
        # unbudgeted): "proved" up to the bound, the rest refuted.
        proved = [op[0] * 1e3 for op in ops if op[3] is None]
        refuted = [op[0] * 1e3 for op in ops if op[3] is not None]
        planted = sum(not p.equivalent for p in pairs[:len(ops)])
        decided = len(refuted) / max(planted, 1)
    return latencies, proved, refuted, decided


def quick_pairs(pairs: List[Pair], equivalent: bool) -> List[Pair]:
    """The set-up probes' questions: narrow-constant pairs with the given
    label, which every tier answers in milliseconds, so ``oneshot_s`` is
    set-up plus first use rather than one heavy search."""
    quick = [p for p in pairs if p.equivalent == equivalent
             and p.mode == "narrow"][:SETUP_PROBES]
    if len(quick) < SETUP_PROBES:
        raise BenchError("too few quick pairs for the set-up probes")
    return quick


def rss_at(out: dict, child: Child) -> float:
    """Peak RSS at equal work (see ``RSS_AT``); a run too slow to get
    there reports its final peak, which ``wait4`` read."""
    if "rss_at_mb" not in out:
        print(f"peak RSS: fewer operations than the fixed point; final "
              f"peak {child.maxrss_mb:.1f} MB reported")
        return child.maxrss_mb
    print(f"peak RSS {out['rss_at_mb']:.1f} MB at the fixed point, "
          f"{child.maxrss_mb:.1f} MB at exit")
    return out["rss_at_mb"]


def latency_metrics(latencies, proved, refuted) -> Dict[str, float]:
    """Medians and tails of one run's operations, split by outcome.  The
    tails are per-layer metrics: ten to fifty samples deep they sit where
    a few gen-2 collection pauses and the host's speed decide them, too
    unsteady across runs for a regression bound."""
    (overall, p_all), (proved_tail, p_proved), (refuted_tail, p_refuted) = (
        tail(latencies), tail(proved), tail(refuted))
    print(f"tails: latency p{p_all:g} (n={len(latencies)}) "
          f"{overall:.3f} ms, proved p{p_proved:g} (n={len(proved)}) "
          f"{proved_tail:.3f} ms, refuted p{p_refuted:g} (n={len(refuted)}) "
          f"{refuted_tail:.3f} ms")
    return {"latency_p50_ms": p50(latencies), "proved_p50_ms": p50(proved),
            "refuted_p50_ms": p50(refuted), "latency.tail_ms": overall,
            "latency.proved_tail_ms": proved_tail,
            "latency.refuted_tail_ms": refuted_tail}


def setup_layers(out: dict) -> Dict[str, float]:
    return {"setup.python_s": out["t_start"] - out["t_spawn"],
            "setup.import_s": out["t_imported"] - out["t_start"],
            "setup.session_s": (out["t_ready"] - out["t_imported"]
                                if "t_ready" in out else 0.0),
            "setup.daemon_s": (out["t_pong"] - out["t_imported"]
                               if "t_pong" in out else 0.0)}


def registry_layers(reg: dict, n: int) -> Dict[str, float]:
    """Per-layer metrics the program itself reports (registry, memo
    stats); ``*_ms`` are per operation of the workload."""
    c, h = reg["counters"], reg["histogram_sums"]

    def tier_ms(tier: str) -> float:
        return h.get(f"pipeline.tier.{tier}.seconds", 0.0) * 1e3 / n

    hits = c.get("proofcache.hits_total", 0.0)
    misses = c.get("proofcache.misses_total", 0.0)
    searches = c.get("disprover.searches_total", 0.0)
    norm = reg["normalize"]
    looked = norm["lifetime_hits"] + norm["lifetime_misses"]
    return {
        "core.normalize_hit_ratio": (norm["lifetime_hits"] / looked
                                     if looked else 0.0),
        "core.interned_nodes": reg["intern"]["interned_nodes"],
        "pipeline.alpha_hash_ms": tier_ms("alpha-hash"),
        "pipeline.conjunctive_ms": tier_ms("conjunctive"),
        "pipeline.prover_ms": tier_ms("prover"),
        "pipeline.disprover_ms": tier_ms("disprover"),
        "pipeline.prover_steps": c.get("pipeline.prover_steps_total", 0.0),
        "disprover.instances": c.get("disprover.instances_total", 0.0),
        "disprover.witness_ratio": (c.get("disprover.witnesses_total", 0.0)
                                    / searches if searches else 0.0),
        "cache.hits": hits, "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.appends": c.get("store.appends_total", 0.0),
        "store.shard_hits": c.get("store.shard_hits_total", 0.0),
        "serve.pipeline_runs": c.get("serve.pipeline_runs_total", 0.0),
        "serve.dedup_followers": c.get("serve.dedup_followers_total", 0.0),
        "serve.errors": c.get("serve.errors_total", 0.0),
        "optimizer.saturate_iterations": c.get("saturate.iterations_total",
                                               0.0),
    }


def span_layers(spans: List[list], n: int) -> Dict[str, float]:
    """Per-layer self time (ms per workload operation) from the spans."""
    own = tracing.self_times(spans)

    def ms(name: str) -> float:
        return own.get(name, 0.0) * 1e3 / n

    search = sum(e - s for name, s, e, _, _ in spans
                 if name == "disprover.search")
    certify = (tracing.child_time(spans, "pipeline.check",
                                  "optimizer.optimize")
               + tracing.child_time(spans, "core.normalize",
                                    "optimizer.optimize"))
    return {
        "sql.compile_ms": ms("sql.compile"),
        "sql.queries": sum(s[0] == "sql.compile" for s in spans),
        "core.normalize_ms": ms("core.normalize"),
        "engine.compile_ms": ms("engine.compile"),
        "disprover.search_ms": ms("disprover.search"),
        "analysis.infer_ms": ms("analysis.infer"),
        "session.self_ms": ms("session.check") + ms("session.disprove"),
        "optimizer.search_ms": ms("optimizer.optimize"),
        "optimizer.certify_ms": certify * 1e3 / n,
        "_search_s": search,
    }


def outcome_layers(ops: List[list]) -> Dict[str, float]:
    """Deciding-stage counts and disprover coverage from the verdicts."""
    out = {f"pipeline.decided_by.{s}": 0.0 for s in
           ("alpha-hash", "conjunctive", "prover", "disprover", "unknown")}
    for op in ops:
        stage = "unknown" if op[1] == "UNKNOWN" else op[2]
        key = f"pipeline.decided_by.{stage}"
        if key in out:
            out[key] += 1
    out["disprover.exhausted"] = float(sum(bool(op[4]) for op in ops))
    return out


def session_layers(traced: dict, n: int) -> Dict[str, float]:
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(registry_layers(traced["registry"], n))
    layers.update(span_layers(traced["spans"], n))
    layers.update(outcome_layers(traced["ops"]))
    search_s = layers.pop("_search_s")
    layers["disprover.instances_per_s"] = (
        layers["disprover.instances"] / search_s if search_s else 0.0)
    layers["verdicts.ops"] = n
    return layers


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

class Connection:
    """One blocking NDJSON connection (the client side of the protocol)."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=60.0)
        self.stream = self.sock.makefile("rwb")

    def call(self, message: dict) -> dict:
        self.stream.write(json.dumps(message).encode() + b"\n")
        self.stream.flush()
        line = self.stream.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


class Daemon:
    """``repro serve`` in a worker process, with its own proof store."""

    def __init__(self, work: Work, trace: bool) -> None:
        store = work.path("store")
        self.child = Child(work, {"mode": "serve", "store_dir": store,
                                  "trace": trace,
                                  "rss_at": RSS_AT["serve-mixed"]},
                           stdout=subprocess.PIPE)
        try:
            line = b""
            while b"listening on" not in line:
                ready, _, _ = select.select([self.child.proc.stdout], [], [],
                                            60.0)
                line = self.child.proc.stdout.readline() if ready else b""
                if not line:
                    raise BenchError("daemon did not start listening")
            host, port = line.decode().rsplit(" ", 1)[1].strip().split(":")
            self.address = (host, int(port))
            conn = Connection(self.address)
            try:
                if not conn.call({"op": "ping", "id": "ping"})["ok"]:
                    raise BenchError("daemon did not answer ping")
            finally:
                conn.close()
        except BaseException:
            self.child.kill()
            raise
        self.t_pong = time.monotonic()

    def stop(self) -> dict:
        """Shut the daemon down (drained) and return its output."""
        try:
            conn = Connection(self.address)
            try:
                conn.call({"op": "shutdown", "id": "shutdown"})
            except (BenchError, OSError):
                # The daemon can exit before its acknowledgement is
                # written; its exit status below is what counts.
                pass
            finally:
                conn.close()
            out = self.child.wait(timeout=60.0)
        finally:
            self.child.kill()
        out["t_spawn"] = self.child.t_spawn
        out["t_pong"] = self.t_pong
        return out


class ServeStream:
    """The deterministic request sequence of one serve-mixed run."""

    def __init__(self, seed: int, seconds: float) -> None:
        # Two tables keep a repeated UNKNOWN's re-run cheap enough that the
        # serve layers, not the disprover, set this workload's time.
        corpus = Corpus(f"serve/{seed}", tables=("R", "S"))
        # Three hot pairs per corpus slot, so composition is seed-stable.
        self.hot = corpus.take(3 * len(corpus.slots))
        n_cold = int(MAX_RATE["serve-mixed"] * seconds
                     * SERVE_PATTERN.count("c") / len(SERVE_PATTERN)) + 20
        self.cold = corpus.take(n_cold)
        self.oracle = corpus.oracle
        # The join family's queries: the optimizer's rewrites apply to
        # them, their shapes cycle with the slots (so the costly first
        # optimization of each is a seed-stable share of the run), and
        # their plans decompile to aggregate-free SQL, which SQLite reads
        # as HoTTSQL does (SUM((SELECT ...)) it would not).
        self.optimize = [p.sql1 for p in self.hot if p.family == "join"]
        self.probes = quick_pairs(self.cold, equivalent=True)
        self.tables = list(TABLE_SPECS)

    def request(self, i: int) -> Tuple[dict, Any]:
        kind = SERVE_PATTERN[i % len(SERVE_PATTERN)]
        cycle = i // len(SERVE_PATTERN)
        slot = SERVE_PATTERN[:i % len(SERVE_PATTERN)].count(kind)
        k = cycle * SERVE_PATTERN.count(kind) + slot
        if kind == "o":
            sql = self.optimize[k % len(self.optimize)]
            return ({"op": "optimize", "id": i, "sql": sql,
                     "rows": SERVE_ROWS, "tables": self.tables}, sql)
        pair = (self.hot[k % len(self.hot)] if kind == "h"
                else self.cold[k % len(self.cold)])
        return ({"op": "check", "id": i, "sql1": pair.sql1,
                 "sql2": pair.sql2, "tables": self.tables}, pair)


def drive(daemon: Daemon, stream: ServeStream, seconds: Optional[float],
          limit: Optional[int], start: int = 0
          ) -> Tuple[List[tuple], float, float]:
    """Closed loop over ``SERVE_CONNECTIONS`` connections: each sends its
    next request only after the previous reply.  The stream is taken up
    at request ``start``.  Returns the records (index, round-trip
    seconds, response, payload, received at) in index order, and the
    loop's start and end times."""
    lock = threading.Lock()
    state = {"next": start}
    records: List[tuple] = []
    errors: List[BaseException] = []
    started = time.monotonic()
    deadline = None if seconds is None else started + seconds

    def client() -> None:
        conn = None
        try:
            conn = Connection(daemon.address)
            while True:
                with lock:
                    i = state["next"]
                    if (limit is not None and i >= limit) or (
                            deadline is not None
                            and time.monotonic() >= deadline):
                        return
                    state["next"] += 1
                message, payload = stream.request(i)
                t0 = time.perf_counter()
                response = conn.call(message)
                rtt = time.perf_counter() - t0
                with lock:
                    records.append((i, rtt, response, payload,
                                    time.monotonic()))
        except Exception as exc:  # surfaced after the join
            errors.append(exc)
        finally:
            if conn is not None:
                conn.close()

    threads = [threading.Thread(target=client)
               for _ in range(SERVE_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError(f"client failed: {errors[0]!r}")
    ended = time.monotonic()
    records.sort(key=lambda r: r[0])
    return records, started, ended


def check_serve(records: List[tuple], oracle: Oracle, tally: Tally
                ) -> Dict[str, list]:
    """Check every response; split latencies by kind and outcome."""
    split: Dict[str, list] = {k: [] for k in (
        "all", "proved", "refuted", "optimize", "ratio", "handle",
        "overhead", "statuses", "cached", "repeat", "outcomes")}
    seen: set = set()
    for i, rtt, response, payload, _ in records:
        split["all"].append(rtt * 1e3)
        if not response.get("ok"):
            tally.errors += 1
            continue
        result = response["result"]
        split["handle"].append(result["wall_seconds"] * 1e3)
        split["overhead"].append((rtt - result["wall_seconds"]) * 1e3)
        if isinstance(payload, str):
            split["optimize"].append(rtt * 1e3)
            split["ratio"].append(result["best_cost"]
                                  / result["original_cost"])
            if not result["certified"]:
                tally.errors += 1
            elif result["sql"] is not None:
                try:
                    if oracle.differs(payload, result["sql"]):
                        tally.wrong += 1
                except sqlite3.Error:  # SQLite cannot read this rendering
                    pass
            continue
        status = result["status"]
        tally.verdict(payload, status, result["verdict"]["counterexample"])
        (split["proved"] if status == "PROVED"
         else split["refuted"]).append(rtt * 1e3)
        split["statuses"].append(status)
        split["cached"].append(bool(result["cached"]))
        split["repeat"].append(payload in seen)
        seen.add(payload)
        if not result["cached"]:
            bound = result["verdict"]["bound"]
            split["outcomes"].append([rtt, status, result["stage"], None,
                                      bool(bound and bound["exhausted"])])
    return split


def serve_workload(args, work: Work) -> Dict[str, Any]:
    stream = ServeStream(args.seed, args.seconds)
    try:
        return _serve_workload(args, work, stream)
    finally:
        stream.oracle.close()


def _serve_workload(args, work: Work, stream: ServeStream
                    ) -> Dict[str, Any]:
    if args.trace:
        daemon = Daemon(work, trace=False)
        try:
            base, b0, b1 = drive(daemon, stream, args.seconds / 3, None)
        finally:
            base_out = daemon.stop()
        daemon = Daemon(work, trace=True)
        try:
            traced, t0, t1 = drive(daemon, stream, None, len(base))
        finally:
            out = daemon.stop()
        daemon = Daemon(work, trace=False)
        try:
            again, a0, a1 = drive(daemon, stream, None, len(base))
        finally:
            daemon.stop()
        tally = Tally()
        base_split = check_serve(base, stream.oracle, tally)
        split = check_serve(traced, stream.oracle, tally)
        check_serve(again, stream.oracle, tally)
        n = len(traced)
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(registry_layers(out["registry"], n))
        layers.update(span_layers(out["spans"], n))
        search_s = layers.pop("_search_s")
        layers["disprover.instances_per_s"] = (
            layers["disprover.instances"] / search_s if search_s else 0.0)
        layers.update(setup_layers(base_out))
        layers.update(outcome_layers(split["outcomes"]))
        layers.update({
            "serve.handle_ms": statistics.fmean(split["handle"]),
            "serve.overhead_ms": statistics.fmean(split["overhead"]),
            "serve.hit_share": statistics.fmean(split["cached"]),
            "serve.repeat_share": statistics.fmean(split["repeat"]),
            "optimizer.request_p50_ms": p50(split["optimize"]),
            "optimizer.plan_cost_ratio": geomean(split["ratio"]),
            "optimizer.plans_explored": float(sum(
                r[2]["result"]["plans_explored"] for r in traced
                if isinstance(r[3], str) and r[2].get("ok"))),
            "verdicts.ops": n, "verdicts.wrong": tally.wrong,
            "trace.overhead_ratio": overhead_ratio(b1 - b0, t1 - t0,
                                                   a1 - a0),
        })
        layers.update(latency_metrics(base_split["all"],
                                      base_split["proved"],
                                      base_split["refuted"]))
        return finish(args, layers, PER_LAYER, 3 * n, tally)

    setups, oneshots = [], []

    def probe(pair: Pair) -> None:
        daemon = Daemon(work, trace=False)
        try:
            conn = Connection(daemon.address)
            try:
                response = conn.call({"op": "check", "id": "probe",
                                      "sql1": pair.sql1, "sql2": pair.sql2,
                                      "tables": stream.tables})
            finally:
                conn.close()
            answered = time.monotonic()
        finally:
            out = daemon.stop()
        if not response.get("ok"):
            raise BenchError(f"probe check failed: {response}")
        setups.append(daemon.t_pong - out["t_spawn"])
        oneshots.append(answered - out["t_spawn"])

    # The timed loop runs in slices with a probe between each two, at the
    # offsets the session workloads use; the daemon idles meanwhile.
    daemon = Daemon(work, trace=False)
    try:
        records, active = [], 0.0
        offsets = probe_offsets(args.seconds) + [args.seconds]
        for pair, until in zip(stream.probes + [None], offsets):
            part, started, ended = drive(daemon, stream, until - active,
                                         None, start=len(records))
            records += part
            active += ended - started
            if pair is not None:
                probe(pair)
    finally:
        out = daemon.stop()
    setups.append(daemon.t_pong - out["t_spawn"])
    tally = Tally()
    split = check_serve(records, stream.oracle, tally)
    statuses = split["statuses"]
    metrics = {
        "setup_s": p50(setups), "oneshot_s": p50(oneshots),
        "ops_per_s": len(records) / active,
        "decided_share": sum(s != "UNKNOWN" for s in statuses)
        / len(statuses),
        "peak_rss_mb": rss_at(out, daemon.child),
    }
    metrics.update(latency_metrics(split["all"], split["proved"],
                                   split["refuted"]))
    print(f"serve: {len(records)} requests, repeat share "
          f"{statistics.fmean(split['repeat']):.3f}, hit share "
          f"{statistics.fmean(split['cached']):.3f}, optimize p50 "
          f"{p50(split['optimize']):.2f} ms, plan cost ratio "
          f"{geomean(split['ratio']):.4f}")
    return finish(args, metrics, END_TO_END, len(records), tally)


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) \
        if values else 0.0


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def finish(args, values: Dict[str, float], declared: Dict[str, str],
           attempted: int, tally: Tally) -> Dict[str, Any]:
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in declared.items()}
    for name, m in metrics.items():
        print(f"{args.workload:>15} {name:<34} {m['value']:>14.6g} "
              f"{m['unit']}")
    failed = tally.wrong + tally.errors
    print(f"wrong_verdicts {tally.wrong} (of {attempted} operations, "
          f"{tally.replays} witnesses replayed in sqlite3), errors "
          f"{tally.errors}, failure share {failed / max(attempted, 1):.4f}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


WORKLOADS = {"check-cold": session_workload,
             "disprove-bound": session_workload,
             "serve-mixed": serve_workload}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Let a terminated run unwind, so its workers are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro sources under {SRC}: run from the repository "
              f"root", file=sys.stderr)
        return 2
    work = Work()
    try:
        result = WORKLOADS[args.workload](args, work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        work.close()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
