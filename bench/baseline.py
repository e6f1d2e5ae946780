"""Regenerate the ROADMAP baseline table; advisory, never a gate.

Each row runs in a child process with a time cap of CAP_S seconds; a row that
reaches the cap is recorded as exceeding it instead of being run to
completion.  Results go
to ``bench/results/baseline-<UTC time>.json`` together with the Python
version, the CPU count, the git commit and the seed, and each run prints its
change from the newest earlier result.
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
CAP_S = 30

# name: (call, input, what is timed, input description)
ROWS = {
    "tol_u_q18": ("tol", "q18", "tol (u-resultant route)", "Q, degree 18, separable"),
    "disc_q18": ("disc", "q18", "discriminant", "the same input"),
    "tol_u_fp18": ("tol", "fp18", "tol (u-resultant route)", "F_10007, degree 18"),
    "report_q12": ("report", "q12", "build_report", "Q, degree 12"),
    "tol_u_q12": ("tol", "q12", "tol (u-resultant route)", "the same input"),
    "sqf_q12_rep": ("sqf", "q12rep", "squarefree decomposition + CORRECTED",
                    "Q, degree 12, repeated roots"),
    "tol_u_q12_rep": ("tol", "q12rep", "tol (u-resultant route)", "the same input"),
    "sqf_q42_rep": ("sqf", "q42rep", "squarefree decomposition + CORRECTED",
                    "Q, degree 42, repeated roots"),
    "tol_u_q42_rep": ("tol", "q42rep", "tol (u-resultant route)", "the same input"),
    "sqf_fp42_rep": ("sqf", "fp42rep", "squarefree decomposition + CORRECTED",
                     "F_10007, degree 42, repeated roots"),
    "tol_u_fp42_rep": ("tol", "fp42rep", "tol (u-resultant route)", "the same input"),
    "sqf_fpt17": ("sqf", "fpt17", "squarefree route over F_3(t)",
                  "(x^9-t)*(x^3-t-1)^2*(x^2+t), degree 17"),
    "cli_x2000": ("cli", None, "tolerant tol x^2000+1 --field fp:7",
                  "a 9-character input"),
}
SKIPPED = {"sqf_fpt17": "the squarefree route over F_p(t) is not in the package"}
SAME_VALUE = [("sqf_q12_rep", "tol_u_q12_rep"), ("sqf_q42_rep", "tol_u_q42_rep"),
              ("sqf_fp42_rep", "tol_u_fp42_rep")]


def _dense(field, degree: int, rng: random.Random):
    """Random dense polynomial with small integer coefficients."""
    from tolerant import Polynomial
    coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([1, 2, 3])]
    return Polynomial.from_ints(field, coeffs)


def _input(kind: str, seed: int):
    """The row input; rows naming the same kind get the same polynomial."""
    import tolerant as T
    field = T.rationals() if kind.startswith("q") else T.prime_field(10007)
    rng = random.Random(f"{kind}/{seed}")
    if not kind.endswith("rep"):
        return _dense(field, int(kind.lstrip("qfp")), rng)
    parts = [(2, 2), (2, 3), (2, 1)] if "12" in kind else [(6, 2), (6, 3), (12, 1)]
    f = None
    for degree, m in parts:
        g = _dense(field, degree, rng) ** m
        f = g if f is None else f * g
    return f


def measure(name: str, seed: int) -> dict:
    """Build the row's input, then time the row's one call."""
    import tolerant as T
    from tolerant import cli
    call, kind = ROWS[name][:2]
    f = _input(kind, seed) if kind else None
    run = {
        "tol": lambda: T.tol(f),
        "disc": lambda: T.discriminant(f),
        "report": lambda: T.build_report(f).tol,
        "sqf": lambda: T.tol_from_factorization(T.squarefree_decomposition(f)),
        "cli": lambda: cli.main(["tol", "--field", "fp:7", "--", "x^2000+1"]),
    }[call]
    start = perf_counter()
    value = run()
    seconds = perf_counter() - start
    return {"seconds": seconds, "value": str(value)[:200]}


def _child(name: str, seed: int, root: Path) -> dict:
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import baseline; "
            "print(json.dumps(baseline.measure(sys.argv[3], int(sys.argv[4]))))")
    try:
        proc = subprocess.run([sys.executable, "-c", code, str(BENCH),
                               str(root / "src"), name, str(seed)],
                              capture_output=True, text=True, timeout=CAP_S,
                              cwd=root)
    except subprocess.TimeoutExpired:
        return {"status": "exceeds-cap", "seconds": None}
    if proc.returncode != 0:
        return {"status": "error", "seconds": None,
                "detail": (proc.stderr.strip().splitlines() or [""])[-1]}
    return {"status": "ok", **json.loads(proc.stdout.strip().splitlines()[-1])}


def _git_sha(root: Path) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _show(row: dict) -> str:
    if row["status"] != "ok":
        return row["status"]
    s = row["seconds"]
    return f"{s:.3f} s" if s >= 1 else f"{1000 * s:.1f} ms"


def main(root: Path, seed: int) -> int:
    previous = sorted(RESULTS.glob("baseline-*.json"))
    before = json.loads(previous[-1].read_text()) if previous else None
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    result = {
        "utc": stamp,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(root),
        "seed": seed,
        "cap_s": CAP_S,
        "rows": {},
    }
    for name, (_, _, what, given) in ROWS.items():
        if name in SKIPPED:
            row = {"status": "skipped", "seconds": None, "detail": SKIPPED[name]}
        else:
            row = _child(name, seed, root)
        result["rows"][name] = {"what": what, "input": given, **row}
        old = before["rows"].get(name) if before else None
        change = ""
        if old and old["status"] == row["status"] == "ok":
            change = f"  ({100 * (row['seconds'] / old['seconds'] - 1):+.0f}% vs {_show(old)})"
        elif old:
            change = f"  (was {_show(old)})"
        print(f"{what:46} {given:38} {_show(row):>12}{change}")
    for a, b in SAME_VALUE:
        ra, rb = result["rows"][a], result["rows"][b]
        if ra["status"] == rb["status"] == "ok":
            print(f"values of {a} and {b}: "
                  f"{'equal' if ra['value'] == rb['value'] else 'DIFFERENT'}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"baseline-{stamp}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"advisory only; written to {path}")
    print(json.dumps({"python": result["python"], "nproc": result["nproc"],
                      "git_sha": result["git_sha"], "seed": seed}))
    return 0
