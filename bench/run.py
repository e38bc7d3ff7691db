"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one closed-loop caller: each operation starts
after the previous one ends.  The run builds its inputs from the seed,
sets up several times (importing rpqres and parsing every input), runs
whole rounds of the workload's operation list until the time is up, then
checks every answer.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics without tracing, the per-layer metrics with it.

Times are at reference speed: a fixed pure-Python loop is timed just
before and just after each operation (or batch of short operations), and
each raw time is scaled by the loop's nominal time over its measured time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPS = 21

# The reference loop: dictionary lookups through a tuple of keys, no
# allocation of containers, so the program's heap cannot slow it through GC.
_KEYS = tuple(("n%d" % i, i) for i in range(512))
_TABLE = {k: i for i, k in enumerate(_KEYS)}
REF_ITERATIONS = 15_000
# Its time at nominal speed: the median on the machine the README describes.
NOMINAL_REF_S = 1.35e-3


def reference_loop(n=REF_ITERATIONS, table=_TABLE, keys=_KEYS):
    x = 0
    for i in range(n):
        x ^= table[keys[i & 511]]
    return x


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Objects(dict):
    """Program objects by input key, plus the API and the in-process CLI."""

    api = None
    cli_main = None
    tracer = None

    def cli(self, args, stdin_text):
        """Invoke the command line in-process; returns (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text or "")
        span = self.tracer.open("cli.invoke") if self.tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    self.cli_main.main(args=args, prog_name="rpqres", standalone_mode=False)
                    code = 0
                except SystemExit as exc:
                    code = exc.code
        finally:
            if span is not None:
                self.tracer.close(span)
            sys.stdin = saved
        return code, out.getvalue()


def build(api, workload) -> Objects:
    objs = Objects()
    objs.api = api
    for key, kind, text in workload.sources:
        if kind == "db":
            objs[key] = api.parse_db(text)
        elif kind == "gadget":
            objs[key] = api.load_gadget(text)[0]
        elif kind == "graph":
            objs[key] = api.parse_graph(text)
        else:
            objs[key] = api.builtin_gadgets()[text]
    for key, graph, gadget in workload.encodings:
        objs[key] = api.encode_graph(objs[graph], objs[gadget])
    return objs


class Setup:
    """Imports rpqres and parses every input into program objects.

    Before each repetition every module imported since the first one began
    is dropped, so each repetition pays the same imports a fresh process
    pays beyond what the benchmark itself had loaded.  The first repetition
    gives the objects the operations use; the rest run after the measured
    loop, so that their garbage does not count in its peak memory.
    """

    def __init__(self, workload, tracer):
        self.workload, self.tracer = workload, tracer
        self.baseline = set(sys.modules)
        self.times, self.raw_times = [], []

    def once(self) -> Objects:
        rep = len(self.times)
        for name in [m for m in sys.modules if m not in self.baseline]:
            del sys.modules[name]
        gc.collect()
        if self.tracer:
            self.tracer.op = ("setup", rep)
            self.tracer.stack.clear()
        r0 = reference_time()
        t0 = time.perf_counter()
        api = importlib.import_module("rpqres")
        cli = importlib.import_module("rpqres.cli") if self.workload.uses_cli else None
        if self.tracer:
            self.tracer.install(api)
        objs = build(api, self.workload)
        t1 = time.perf_counter()
        r1 = reference_time()
        factor = NOMINAL_REF_S / ((r0 + r1) / 2)
        if self.tracer:
            self.tracer.factors[("setup", rep)] = factor
        self.times.append((t1 - t0) * factor)
        self.raw_times.append(t1 - t0)
        objs.cli_main = cli.main if cli else None
        objs.tracer = self.tracer
        return objs


def measure(workload, objs, seconds, tracer):
    """Whole rounds of the operation list until the time is up.

    Returns (rounds, [(op, scaled seconds, ok, raw seconds)], reference
    loop times).  Distinct answers are kept on each operation for checking;
    failures keep only their text.
    """
    ops = workload.ops
    for op in ops:
        op.results, op.errors = [], []
    samples, references = [], []
    rounds = 0
    op_id = 0
    # the inputs live through the whole loop: keep the collector from
    # scanning them, so that full collections do not land on whichever
    # operation happens to cross the allocation threshold
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while True:
        for b in range(0, len(ops), workload.batch):
            group = []
            r0 = reference_time()
            for op in ops[b : b + workload.batch]:
                if tracer:
                    # a RecursionError can leave spans open: start each
                    # operation from an empty span stack
                    tracer.op = op_id
                    tracer.stack.clear()
                t0 = time.perf_counter()
                try:
                    result, ok = op.run(objs), True
                except Exception as exc:  # counted as a failed operation
                    result, ok = f"{type(exc).__name__}: {str(exc)[:200]}", False
                group.append((op, time.perf_counter() - t0, ok, result, op_id))
                op_id += 1
            r1 = reference_time()
            references += (r0, r1)
            factor = NOMINAL_REF_S / ((r0 + r1) / 2)
            for op, raw, ok, result, oid in group:
                if tracer:
                    tracer.factors[oid] = factor
                samples.append((op, raw * factor, ok, raw))
                kept = op.results if ok else op.errors
                if not any(result == r for r in kept):
                    kept.append(result)
            del group
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return rounds, samples, references


def check_answers(workload) -> list:
    problems = []
    for op in workload.ops:
        op.answers = [op.plain(r) for r in op.results]
    for op in workload.ops:
        for answer in op.answers:
            for problem in op.check(answer):
                problems.append(f"{op.label}: {problem}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/rpqres/__init__.py", "tests/oracles.py", "samples/aa.gadget")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(ROOT / "tests")]
    import oracles  # noqa: F401  (loaded before set-up, which must not pay for it)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload = workloads.generate(args.workload, args.seed, ROOT)
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    setup = Setup(workload, tracer)
    objs = workload.objs = setup.once()
    rounds, samples, references = measure(workload, objs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gc.unfreeze()
    while len(setup.times) < SETUP_REPS:
        setup.once()
    setup_s = statistics.median(setup.times)
    if tracer:
        tracer.op = None

    problems = check_answers(workload)
    for problem in problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)
    failures = sorted({f"{op.label}: {e}" for op in workload.ops for e in op.errors})
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)

    attempted = len(samples)
    completed = sum(1 for _, _, ok, _ in samples if ok)
    op_seconds = sum(t for _, t, _, _ in samples)
    per_op, per_op_raw = {}, {}
    for op, t, ok, raw in samples:
        if ok:
            per_op.setdefault(op.label, []).append(t)
            per_op_raw.setdefault(op.label, []).append(raw)
    op_medians = {label: statistics.median(times) for label, times in per_op.items()}
    if tracer:
        values = tracer.metrics(rounds, SETUP_REPS)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    else:
        metrics = {
            "ops_per_s": {"value": completed / op_seconds, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(op_medians.values()) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, rounds=rounds, ops_per_round=len(workload.ops),
                  round_s=op_seconds / rounds, setup_reps_s=setup.times, failures=failures,
                  op_median_ms={k: v * 1e3 for k, v in op_medians.items()},
                  raw={
                      "ops_per_s": completed / sum(raw for *_, raw in samples),
                      "op_p50_ms": statistics.median(
                          statistics.median(v) for v in per_op_raw.values()) * 1e3,
                      "setup_s": statistics.median(setup.raw_times),
                      "reference_loop_s": statistics.median(references),
                  })
    if tracer:
        record["layer_shares"] = tracer.layer_shares(op_seconds)
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump(), default=str))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("_per_resilience") or name.endswith("_cuts"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
