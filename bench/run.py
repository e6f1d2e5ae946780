"""Oracle-checked benchmark of the ``tolerant`` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --baseline [--seed N]

Each workload is a closed loop with one client: ``tolerant.cli.main`` is
called in-process on one generated input after another, and every output is
checked against oracle values computed from how the input was built (see
corpus.py).  Whole passes over the corpus repeat while that ends nearer to
S seconds than stopping would.  With --trace 0 the end-to-end metrics are
printed, together with each field's share of the pass time; with --trace 1
untraced and traced passes alternate, the traced ones giving the per-layer
metrics and a span file in bench/out/.  ``--workload all`` runs each
workload in a child process of its own.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_STARTS = 9
MARKERS = ("UNAVAILABLE",)

# A fresh interpreter imports the CLI and runs one input, as a user would.
_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from tolerant.cli import main; raise SystemExit(main(sys.argv[2:]))")


def load_cli():
    """The checkout's ``tolerant.cli`` module; exits 2 when it is absent."""
    if not (SRC / "tolerant" / "cli.py").is_file():
        print(f"error: no tolerant package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from tolerant import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported tolerant from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return cli


# -- one input ------------------------------------------------------------------


def call(cli, argv: list[str]):
    """(seconds, exit code or None when it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:   # a crash is a failed input, not a failed benchmark
            rc = None
            traceback.print_exc()
        elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


def _same(field, text, want) -> bool:
    if isinstance(want, str) or not isinstance(text, str):
        return text == want
    try:
        return field.parse_value(text) == want
    except ValueError:
        return False


def check(item: corpus.Item, rc, out: str) -> tuple[list[str], int]:
    """(problems, marker count) of one output against the item's oracle."""
    if rc != 0:
        return [f"exit code {rc}"], 0
    want, F = item.expect, item.field
    if item.command != "report":
        value = want["disc"] if item.command == "disc" else want["tol"]
        if value == corpus.REPEATED_ROOT:
            value = F.of(0)
        return ([] if _same(F, out.strip(), value) else ["value"]), 0
    try:
        got = json.loads(out)
    except ValueError:
        return ["output is not JSON"], 0
    problems = [k for k in ("tol", "dupl", "gdisc", "disc")
                if not _same(F, got.get(k), want[k])]
    for key in ("degree", "separable", "in_T"):
        if got.get(key) != want[key]:
            problems.append(key)
    markers = 0
    if got.get("homothety_exponent") in MARKERS:
        markers += 1
    elif got.get("homothety_exponent") != want["homothety_exponent"]:
        problems.append("homothety_exponent")
    if got.get("paths_agree") is None:
        markers += 1
    elif got.get("paths_agree") is not True:
        problems.append("paths_agree")
    if got.get("errors"):
        problems.append("errors")
    return problems, markers


# -- passes and metrics -----------------------------------------------------------


class Tally:
    """Failures across a run, with the first few kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"{label}: {', '.join(problems)}")


def run_pass(cli, items, tally: Tally) -> dict:
    """One closed-loop pass; outputs are checked after the timed calls."""
    results = []
    start = perf_counter()
    for item in items:
        results.append(call(cli, item.argv()))
    wall = perf_counter() - start
    markers = 0
    for item, (_, rc, out, err) in zip(items, results):
        problems, found = check(item, rc, out)
        markers += found
        if problems and err:
            problems.append(err.strip().splitlines()[-1])
        tally.add(f"{' '.join(item.argv()[:-1])} {item.expr[:60]!r} "
                  f"[n={item.degree}]", problems)
    return {"wall": wall, "latencies": [r[0] for r in results],
            "markers": markers}


def fresh_start(item: corpus.Item, tally: Tally) -> float:
    """Wall time of a fresh interpreter that imports the CLI and finishes
    `item`, as a user's first command would."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC),
                           *item.argv()],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    elapsed = perf_counter() - start
    tally.add("setup", check(item, proc.returncode, proc.stdout)[0])
    return elapsed


def top_rung(items) -> list[int]:
    """Indices of each (command, field) ladder's highest-degree inputs.
    top_rung_ms is their mean latency: the rung mixes fields and root
    patterns whose costs differ several-fold, so a median would jump between
    those groups from one seed to the next."""
    top: dict[tuple, int] = {}
    for item in items:
        key = (item.command, item.field.name)
        top[key] = max(top.get(key, 0), item.degree)
    return [i for i, item in enumerate(items)
            if item.degree == top[(item.command, item.field.name)]]


def tail(latencies: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest whole percentile that leaves at least
    ten of the samples beyond it."""
    pct = max(50, math.floor(100 * (1 - 10 / len(latencies))))
    ranked = sorted(latencies)
    return pct, ranked[max(0, math.ceil(pct / 100 * len(ranked)) - 1)]


def end_to_end(items, passes, starts: list[float]):
    """Each input's latency is the lowest of its passes, and the rate is that
    of the fastest pass.  Other tenants of a shared machine slow whole spells
    of a run by a quarter or more; the best of several repeats is the reading
    least disturbed by them."""
    per_input = [min(p["latencies"][i] for p in passes)
                 for i in range(len(items))]
    top = top_rung(items)
    pct, tail_value = tail(per_input)
    metrics = {
        "setup_s": statistics.median(starts),
        "items_per_s": max(len(items) / p["wall"] for p in passes),
        "latency_p50_ms": 1000 * statistics.median(per_input),
        "latency_tail_ms": 1000 * tail_value,
        "top_rung_ms": 1000 * statistics.fmean(per_input[i] for i in top),
        # The whole workload process: interpreter, package, corpus and oracles.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    best = f"each the best of {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(starts)} fresh starts",
        "items_per_s": f"fastest of {len(passes)} passes of {len(items)} inputs",
        "latency_p50_ms": f"{len(items)} inputs, {best}",
        "latency_tail_ms": f"p{pct}, {len(items)} inputs, "
                           f"{len(items) - math.ceil(pct / 100 * len(items))} beyond",
        "top_rung_ms": f"mean of {len(top)} inputs",
    }
    total = sum(per_input)
    shares = {}
    for item, latency in zip(items, per_input):
        key = f"pass_share.{item.field.name}"
        shares[key] = shares.get(key, 0.0) + latency / total
    return metrics, notes, shares


def per_layer(items, recorder: spans.Recorder, traced, untraced,
              tally: Tally) -> dict:
    """Per-pass layer metrics; every traced pass ran the same inputs, so
    counts divide exactly and times are per-pass means."""
    k = len(traced)
    out = {}
    for name, value in spans.layer_metrics(recorder.spans, recorder.counts).items():
        if isinstance(value, int) and value % k:
            tally.add(name, ["count differs between passes"])
        out[name] = value // k if isinstance(value, int) else value / k
    reports = out["invariants.build_report.calls"]
    out["invariants.u_resultant_per_report"] = (
        out["resultant.resultant_in_u.calls"] / reports if reports else 0.0)
    out["invariants.markers"] = traced[0]["markers"]
    out["trace.overhead_ratio"] = (statistics.median(p["wall"] for p in traced)
                                   / statistics.median(p["wall"] for p in untraced))
    return {m["name"]: out[m["name"]] for m in SPEC["per_layer"]}


def five_three_rule(recorder: spans.Recorder, items, k: int) -> str:
    """Advisory: u-resultant runs per report, by whether f(0) = 0."""
    per_report, current = [], None
    for name, *_ in recorder.spans:
        if name == "invariants.build_report":
            current = [0]
            per_report.append(current)
        elif name == "resultant.resultant_in_u" and current is not None:
            current[0] += 1
    reports = [it for it in items if it.command == "report"] * k
    if not reports:
        return "no reports"
    seen = {(it.expect["in_T"] == corpus.UNDEFINED, c[0])
            for it, c in zip(reports, per_report)}
    return ", ".join(f"{'f(0)=0' if zero else 'f(0)!=0'}: {n} per report"
                     for zero, n in sorted(seen))


# -- command line -------------------------------------------------------------------


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool):
    items = corpus.build_corpus(workload, seed)
    tally = Tally()
    smallest = min(items, key=lambda it: (it.degree, len(it.expr)))
    call(cli, smallest.argv())          # warm the import caches
    deadline = perf_counter() + seconds
    if not trace:
        passes, starts = [], []
        while not passes or perf_counter() + passes[-1]["wall"] / 2 < deadline:
            passes.append(run_pass(cli, items, tally))
            # Fresh starts, one at a time, spread over the run, so that their
            # median does not rest on one spell of the machine's speed.
            starts += [fresh_start(smallest, tally) for _ in range(2)]
        starts += [fresh_start(smallest, tally)
                   for _ in range(SETUP_STARTS - len(starts))]
        metrics, notes, shares = end_to_end(items, passes, starts)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        extra = {"failed_frac": tally.failed / tally.attempted, **shares}
    else:
        # Untraced and traced passes alternate, so that the overhead ratio
        # compares passes run close together in time.
        recorder, traced, untraced = spans.Recorder(), [], []
        while not traced or perf_counter() + traced[-1]["wall"] < deadline:
            untraced.append(run_pass(cli, items, tally))
            with recorder:
                traced.append(run_pass(cli, items, tally))
        metrics = per_layer(items, recorder, traced, untraced, tally)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        notes = {"invariants.u_resultant_per_report":
                 five_three_rule(recorder, items, len(traced))}
        extra = {}
        OUT.mkdir(exist_ok=True)
        first = len(recorder.spans) // len(traced)
        (OUT / f"spans-{workload}-{seed}.json").write_text(json.dumps(
            [s[:4] for s in recorder.spans[:first]]))
    return metrics, units, notes, extra, tally


def print_table(workload, metrics, units, notes, extra) -> None:
    for name, value in {**metrics, **extra}.items():
        unit = units.get(name, "ratio")
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:17} {name:44} {value:14.6g} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="regenerate the ROADMAP baseline rows (advisory)")
    args = parser.parse_args(argv)
    cli = load_cli()
    if args.baseline:
        import baseline
        return baseline.main(ROOT, args.seed)
    if not args.workload:
        parser.error("--workload or --baseline is required")
    if args.workload == "all":
        return run_all(args)
    metrics, units, notes, extra, tally = run_workload(
        cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, metrics, units, notes, extra)
    for example in tally.examples:
        print(f"{args.workload:17} FAILED {example}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a child process of its own, one after another, so
    that peak_rss_mb is that workload's alone; the metrics are merged with
    the workload name as prefix."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        *table, last = proc.stdout.splitlines()
        print("\n".join(table))
        child = json.loads(last)
        result["attempted"] += child["attempted"]
        result["failed"] += child["failed"]
        result["metrics"].update({f"{workload}.{name}": value
                                  for name, value in child["metrics"].items()})
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
