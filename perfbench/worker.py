"""Replay one workload's seeded cases and print the measurements as JSON.

Started by run.py in a fresh interpreter for every run.  Cases are
generated before any timing starts.  A pass replays the whole case list,
one case after another, from cold library caches; passes repeat until
the time budget is spent.  Every case's time is its fastest over the
passes, which keeps bursts of machine noise out of the figures.  Every case execution is checked: its
identity must hold and the SHA-256 of its canonical outputs must match
reference.json.  An exception fails the case, not the run.

With --trace 1 untraced and traced passes alternate (see tracing.py);
the traced passes give the per-layer metrics, and the first one's spans
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

# a case's fastest of several passes misses the bursts of noise that
# scaling to the reference speed leaves
MIN_PASSES = 3
# no pass starts once this much measuring time would be exceeded
MAX_MEASURE_S = 120.0
FAILURES_SHOWN = 5


def tail_percentile(cases_per_run: int) -> float:
    """The highest percentile of this ladder with ten cases beyond it."""
    return max(p for p in (50, 75, 90, 95, 98, 99, 99.5, 99.9)
               if cases_per_run * (100 - p) >= 1000)


def load_reference(workload: str) -> list[str]:
    blob = json.loads((HERE / "reference.json").read_text())["digests"][workload]
    width = cases.DIGEST_HEX
    return [blob[i:i + width] for i in range(0, len(blob), width)]


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Replay:
    """The case list of one run, with per-case times and failures."""

    def __init__(self, case_list: list, reference: list[str]):
        self.cases = case_list
        self.reference = reference
        self.attempted = 0
        self.failures: list[dict] = []
        self.outputs: dict[int, str] = {}  # case index -> canonical text

    def run_pass(self, tracer: tracing.Tracer | None = None):
        """One pass over the case list, from cold caches.

        Returns each case's time as measured and scaled to the reference
        speed (see speed.py).
        """
        cases.clear_caches()
        raw: list[float] = []
        scaled: list[float] = []
        before = speed.sample()
        sampled = time.perf_counter()
        for case in self.cases:
            if time.perf_counter() - sampled > speed.EVERY_S:
                before = speed.sample()
                sampled = time.perf_counter()
            if tracer is not None:
                tracer.case = case.id
            error = None
            t0 = time.perf_counter()
            try:
                lhs, rhs = cases.run_case(case)
            except Exception as exc:  # a failed case, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            after = before
            if elapsed > speed.AFTER_S:
                after = speed.sample()
                sampled = time.perf_counter()
            raw.append(elapsed)
            scaled.append(speed.scale(elapsed, before, after))
            before = after
            self.attempted += 1
            if error is None:
                error = self._check(case, lhs, rhs)
            if error is not None:
                self.failures.append({"case": case.id, "error": error})
        return raw, scaled

    def _check(self, case, lhs, rhs) -> str | None:
        text = cases.canonical(case, lhs, rhs)
        self.outputs.setdefault(case.index, text)
        if not cases.holds(lhs, rhs):
            return "identity does not hold"
        if cases.digest(text) != self.reference[case.index]:
            return "output digest differs from reference.json"
        return None

    def run_digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.outputs):
            h.update(self.outputs[index].encode())
        return h.hexdigest()


def repeat(budget_s: float, min_rounds: int, one_round) -> None:
    """Call one_round at least min_rounds times, then while the budget
    lasts, predicting each round to take as long as the previous one."""
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + last > budget_s:
            return
        if rounds and elapsed + last > MAX_MEASURE_S:
            return
        t0 = time.perf_counter()
        one_round()
        last = time.perf_counter() - t0
        rounds += 1


def fastest(passes: list[list[float]]) -> list[float]:
    """Each case's fastest time over the passes, which drops the bursts of
    machine noise that scaling to the reference speed misses."""
    return [min(ts) for ts in zip(*passes)]


def timing(passes: list[list[float]], tail_pct: float) -> dict:
    per_case = fastest(passes)
    return {
        "wall_s": sum(per_case),
        "case_p50_ms": statistics.median(per_case) * 1e3,
        "case_tail_ms": nearest_rank(per_case, tail_pct) * 1e3,
    }


def layer_metrics(tracer: tracing.Tracer, passes: int,
                  distinct: dict) -> dict:
    """Per-pass figures from a tracer that ran over several passes."""
    out = {}
    for layer, names in tracing.LAYERS.items():
        for n in names:
            out[f"{layer}.{n}.calls"] = tracer.calls[f"{layer}.{n}"] // passes
            out[f"{layer}.{n}.self_s"] = tracer.self_s[f"{layer}.{n}"] / passes
    for layer, value in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = value / passes
    for name in tracing.COEFFS_OUT:
        out[f"{name}.coeffs_out"] = tracer.coeffs_out[name] // passes
    for name in tracing.DISTINCT:
        out[f"{name}.distinct_share"] = distinct[name]
    return out


def attribution(workload: str, tracer: tracing.Tracer, wall: float) -> list:
    """The time attribution ROADMAP.md reports, re-measured.

    Each check is the share of the traced case time that some functions
    cover, and the bound that share should meet; a miss is reported,
    never adjusted.
    """
    tot, own = tracer.total_s, tracer.self_s
    checks = {
        "stembridge-g6": [("tableaux.content_counts inclusive", ">=", 0.5,
                           tot["tableaux.content_counts"])],
        "stembridge-G6": [("tableaux.signed_svt_counts inclusive", ">=", 0.5,
                           tot["tableaux.signed_svt_counts"])],
        "hopf4": [("grothendieck.skew_by + symfunc.* self", ">=", 0.5,
                   own["grothendieck.skew_by"] + sum(
                       own[f"symfunc.{n}"] for n in tracing.LAYERS["symfunc"]))],
        "lattice6": [("tableaux.content_counts inclusive", "<=", 0.01,
                      tot["tableaux.content_counts"])],
    }[workload]
    out = []
    for what, op, bound, seconds in checks:
        share = seconds / wall
        ok = share >= bound if op == ">=" else share <= bound
        out.append({"check": f"{what} share {op} {bound}",
                    "share": round(share, 4), "ok": ok})
    return out


def traced_run(replay: Replay, seconds: float, workload: str,
               seed: int) -> dict:
    """Alternate untraced and traced passes; the difference of their
    times is the tracing overhead."""
    tracer = tracing.Tracer()
    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    traced_raw: list[list[float]] = []
    distinct: dict[str, float] = {}

    def one_pair():
        untraced.append(replay.run_pass()[1])
        with tracing.installed(tracer):
            raw, scaled = replay.run_pass(tracer)
        traced_raw.append(raw)
        traced.append(scaled)
        if not distinct:  # spans and distinct keys of the first pass only
            distinct.update({n: tracer.distinct_share(n)
                             for n in tracing.DISTINCT})
            tracer.keep_spans = False

    repeat(seconds, 1, one_pair)
    layers = layer_metrics(tracer, len(traced), distinct)
    layers["trace.overhead_s"] = sum(fastest(traced)) - sum(fastest(untraced))

    spans = tracer.spans
    spans_file = HERE / "out" / f"spans-{workload}-seed{seed}.json"
    spans_file.parent.mkdir(exist_ok=True)
    t0 = min((s[2] for s in spans), default=0.0)
    spans_file.write_text(json.dumps({
        "workload": workload, "seed": seed, "fields": tracing.SPAN_FIELDS,
        "spans": [(i, n, round(a - t0, 7), round(b - t0, 7), p, c)
                  for i, n, a, b, p, c in spans]}))
    return {"passes": len(traced),
            "layers": layers,
            # the tracer's clock is not scaled, so neither is this total
            "attribution": attribution(workload, tracer,
                                       sum(map(sum, traced_raw))),
            "spans_file": str(spans_file.relative_to(HERE.parent)),
            "spans": len(spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.POPULATIONS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reference = load_reference(args.workload)
    pop = cases.population(args.workload)
    if len(reference) != len(pop):
        sys.stderr.write("reference.json does not match the population\n")
        return 2
    replay = Replay(cases.sample(args.workload, args.seed, pop), reference)
    tail_pct = tail_percentile(len(replay.cases))

    result = {"workload": args.workload, "seed": args.seed,
              "cases": len(replay.cases), "tail_percentile": tail_pct}
    if args.trace:
        result["trace"] = traced_run(replay, args.seconds, args.workload,
                                     args.seed)
    else:
        raw: list[list[float]] = []
        scaled: list[list[float]] = []

        def one_pass():
            r, s = replay.run_pass()
            raw.append(r)
            scaled.append(s)

        repeat(args.seconds, MIN_PASSES, one_pass)
        result["passes"] = len(scaled)
        result.update(timing(scaled, tail_pct))
        result["as_measured"] = timing(raw, tail_pct)
        result["as_measured"]["pass_s"] = [round(sum(p), 4) for p in raw]
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["attempted"] = replay.attempted
    result["failed"] = len(replay.failures)
    result["failures"] = replay.failures[:FAILURES_SHOWN]
    result["run_digest"] = replay.run_digest()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
