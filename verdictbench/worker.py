"""The measured process: one fresh interpreter per run of a workload.

    python verdictbench/worker.py JOB.json OUT.json

``JOB.json`` (written by ``run.py``) names a mode:

* ``check`` — ``Session.from_tables`` then ``Session.check`` on each pair;
* ``disprove`` — ``QueryHandle.disprove`` at the job's bound, unbudgeted;
* ``serve`` — ``python -m repro serve`` in this interpreter, so the start
  and import times can be recorded before the daemon takes over.

The process records monotonic timestamps (start, ``import repro`` done,
session ready, first verdict) that the parent compares with its own spawn
time; ``time.monotonic`` is system-wide on Linux, so the two clocks agree.
A job lists ``pauses``: offsets into the timed phase (not counting earlier
pauses) at which the process, between two operations, writes ``pause`` to
stdout and blocks until the parent answers on stdin; the parent runs a
set-up probe meanwhile, so the probes sample the host over the whole run.
The time spent paused is reported and extends the deadline.  With
``trace`` set it installs :mod:`tracing` after set-up and returns the
spans with the results.  It also records its own peak RSS after the job's
``rss_at``-th operation, so memory is compared at equal work.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _registry() -> dict:
    from repro.core.intern import intern_stats
    from repro.core.normalize import normalize_stats
    from repro.obs.metrics import REGISTRY
    snap = REGISTRY.snapshot()
    return {"counters": snap["counters"],
            "histogram_sums": {k: v["sum"] for k, v
                               in snap["histograms"].items()},
            "normalize": normalize_stats(), "intern": intern_stats()}


def run_session(job: dict, out: dict) -> None:
    from repro import Session  # importing the package is what is timed
    out["t_imported"] = time.monotonic()
    session = Session.from_tables(*job["tables"])
    out["t_ready"] = time.monotonic()
    if job["trace"]:
        import tracing
        tracing.install()
    bound = None
    if job["mode"] == "disprove":
        from repro.solver import Bound
        bound = Bound.of(*job["bound"])
    deadline = None if job["seconds"] is None \
        else out["t_ready"] + job["seconds"]
    pauses = list(job["pauses"])
    out["paused"] = 0.0
    ops = out["ops"] = []
    for index, (sql1, sql2) in enumerate(job["pairs"][:job["limit"]]):
        if pauses and (time.monotonic() - out["t_ready"] - out["paused"]
                       >= pauses[0]):
            pauses.pop(0)
            out["paused"] += _pause()
        if deadline is not None \
                and time.monotonic() - out["paused"] >= deadline:
            break
        if job["trace"]:
            tracing.current_request(index)
        if bound is None:
            started = time.perf_counter()
            v = session.check(sql1, sql2)
            latency = time.perf_counter() - started
            cx = v.counterexample
            ops.append([latency, v.status.value, v.stage,
                        None if cx is None else cx.to_dict(),
                        bool(v.bound and v.bound.exhausted)])
        else:
            h1, h2 = session.sql(sql1), session.sql(sql2)
            started = time.perf_counter()
            r = h1.disprove(h2, bound=bound, max_instances=None)
            latency = time.perf_counter() - started
            ops.append([latency, "DISPROVED" if r.found else "UNKNOWN",
                        "disprover",
                        None if r.record is None else r.record.to_dict(),
                        r.exhausted])
        if index == 0:
            out["t_first"] = time.monotonic()
        if index + 1 == job["rss_at"]:
            out["rss_at_mb"] = _rss_mb()
    out["t_end"] = time.monotonic()
    out["registry"] = _registry()
    if job["trace"]:
        out["spans"] = tracing.dump()


def _pause() -> float:
    """Tell the parent we are between operations and wait until it has
    run its set-up probe; returns the seconds spent waiting."""
    started = time.monotonic()
    sys.stdout.write("pause\n")
    sys.stdout.flush()
    if not sys.stdin.readline():
        raise SystemExit("parent went away during a pause")
    return time.monotonic() - started


def run_daemon(job: dict, out: dict) -> int:
    from repro.cli import main
    out["t_imported"] = time.monotonic()
    if job["trace"]:
        import tracing
        tracing.install()
    _count_requests(job["rss_at"], out)
    try:
        return main(["serve", "--port", "0", "--store-dir",
                     job["store_dir"]])
    finally:
        out["registry"] = _registry()
        if job["trace"]:
            out["spans"] = tracing.dump()


def _count_requests(rss_at: int, out: dict) -> None:
    """Record the daemon's peak RSS once it has answered ``rss_at``
    requests (a fixed amount of work, whatever the run's speed)."""
    from repro.serve.server import ReproServer
    handle = ReproServer.handle_request_line
    lock, seen = threading.Lock(), [0]

    def counted(self, raw):
        try:
            return handle(self, raw)
        finally:
            with lock:
                seen[0] += 1
                if seen[0] == rss_at:
                    out["rss_at_mb"] = _rss_mb()
    ReproServer.handle_request_line = counted


def main() -> int:
    job_path, out_path = sys.argv[1], sys.argv[2]
    with open(job_path) as f:
        job = json.load(f)
    out = {"t_start": T_START}
    try:
        if job["mode"] == "serve":
            return run_daemon(job, out)
        run_session(job, out)
        return 0
    finally:
        with open(out_path, "w") as f:
            json.dump(out, f)


if __name__ == "__main__":
    sys.exit(main())
