"""Per-layer metrics from the spans of traced jobs and from ``-X importtime``.

A span's self time is its duration minus the part of its interval that its
child spans cover; children may run on pool threads and overlap each other.
Counts marked ``computed`` come from array sizes, not hardware counters.
"""

from __future__ import annotations

import re
from collections import defaultdict

# name -> unit, in report order; BENCHMARK.json lists the same names
PER_LAYER = {
    "oracle.diagonalize.calls": "count",
    "oracle.diagonalize.self_s": "s",
    "oracle.diagonalize.dim_max": "count",
    "oracle.diagonalize.flops_computed": "flop",
    "oracle.certify_truncation.calls": "count",
    "oracle.certify_truncation.self_s": "s",
    "oracle.certify_truncation.doublings": "count",
    "oracle.certify_truncation.n_max_used_max": "count",
    "hilbert.build_hamiltonian.calls": "count",
    "hilbert.build_hamiltonian.self_s": "s",
    "hilbert.build_hamiltonian.dim_max": "count",
    "hilbert.build_hamiltonian.bytes_computed": "B",
    "far.far_hamiltonian.calls": "count",
    "far.far_hamiltonian.self_s": "s",
    "oracle.find_crossings.calls": "count",
    "oracle.find_crossings.self_s": "s",
    "oracle.find_crossings.solves": "count",
    "oracle.find_crossings.crossings": "count",
    "oracle.find_crossings.solves_per_crossing": "ratio",
    "oracle.overlap": "ratio",
    "wigner.wigner_grid.calls": "count",
    "wigner.wigner_grid.self_s": "s",
    "wigner.wigner_grid.points": "count",
    "wigner.wigner_numeric.calls": "count",
    "wigner.wigner_numeric.self_s": "s",
    "wigner.displacement_op.calls": "count",
    "wigner.displacement_op.self_s": "s",
    "algebra.run_all_checks.calls": "count",
    "algebra.run_all_checks.self_s": "s",
    "algebra.run_all_checks.identities": "count",
    "jc.self_s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.susyjc_s": "s",
    "trace.overhead_s": "s",
    "trace.absent": "count",
    "single_thread.wall_s": "s",
}

JC_TARGETS = ("jc.lowest_closed_levels", "jc.ground_state_critical",
              "jc.reduced_density")


def union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span of one job, by span id."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = union_length((max(lo, c["start"]), min(hi, c["end"]))
                               for c in children[span["id"]]
                               if c["end"] > lo and c["start"] < hi)
        out[span["id"]] = hi - lo - covered
    return out


def span_metrics(jobs: list[dict]) -> dict[str, float]:
    """Layer metrics over the span files of one traced batch."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    count_sum = defaultdict(int)
    count_max = defaultdict(int)
    solver_busy = solver_union = 0.0
    absent = set()
    for job in jobs:
        absent.update(job["absent"])
        spans = job["spans"]
        selfs = self_times(spans)
        diag = []
        for span in spans:
            name = span["name"]
            calls[name] += 1
            self_s[name] += selfs[span["id"]]
            for key, value in span["counts"].items():
                count_sum[name, key] += value
                count_max[name, key] = max(count_max[name, key], value)
            if name == "oracle.diagonalize":
                diag.append((span["start"], span["end"]))
        solver_busy += sum(hi - lo for lo, hi in diag)
        solver_union += union_length(diag)

    m = {}
    for name in ("oracle.diagonalize", "oracle.certify_truncation",
                 "hilbert.build_hamiltonian", "far.far_hamiltonian",
                 "oracle.find_crossings", "wigner.wigner_grid",
                 "wigner.wigner_numeric", "wigner.displacement_op",
                 "algebra.run_all_checks"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["oracle.diagonalize.dim_max"] = count_max["oracle.diagonalize", "dim"]
    m["oracle.diagonalize.flops_computed"] = count_sum["oracle.diagonalize", "flops"]
    m["oracle.certify_truncation.doublings"] = \
        count_sum["oracle.certify_truncation", "doublings"]
    m["oracle.certify_truncation.n_max_used_max"] = \
        count_max["oracle.certify_truncation", "n_max_used"]
    m["hilbert.build_hamiltonian.dim_max"] = count_max["hilbert.build_hamiltonian", "dim"]
    m["hilbert.build_hamiltonian.bytes_computed"] = \
        count_sum["hilbert.build_hamiltonian", "bytes"]
    solves = count_sum["oracle.find_crossings", "solves"]
    crossings = count_sum["oracle.find_crossings", "crossings"]
    m["oracle.find_crossings.solves"] = solves
    m["oracle.find_crossings.crossings"] = crossings
    m["oracle.find_crossings.solves_per_crossing"] = solves / crossings if crossings else 0.0
    m["oracle.overlap"] = solver_busy / solver_union if solver_union else 0.0
    m["wigner.wigner_grid.points"] = count_sum["wigner.wigner_grid", "points"]
    m["algebra.run_all_checks.identities"] = \
        count_sum["algebra.run_all_checks", "identities"]
    m["jc.self_s"] = sum(self_s[name] for name in JC_TARGETS)
    m["cli.main.calls"] = calls["cli.main"]
    m["cli.self_s"] = self_s["cli.main"]
    m["trace.absent"] = len(absent)
    return m


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)$")


def import_breakdown(stderr: str) -> dict[str, float]:
    """numpy, scipy and susyjc import seconds from ``-X importtime`` output.

    numpy_s and scipy_s are the cumulative times of the outermost imports of
    each package; susyjc_s is the cumulative time of the outermost susyjc
    imports minus the numpy and scipy imports nested in them.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            level = (len(match.group(3)) - 1) // 2
            entries.append((level, match.group(4), int(match.group(2)) * 1e-6))

    def package(name):
        return name.split(".", 1)[0]

    totals = defaultdict(float)
    nested_in_susyjc = 0.0
    stack: list[tuple[int, str]] = []
    # importtime prints children before parents: walk backwards to see
    # each entry's ancestors first
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        outer = {package(n) for _, n in stack}
        pkg = package(name)
        if pkg in ("numpy", "scipy", "susyjc") and pkg not in outer:
            totals[pkg] += cumulative
            if pkg != "susyjc" and "susyjc" in outer and \
                    not outer & {"numpy", "scipy"}:
                nested_in_susyjc += cumulative
        stack.append((level, name))
    return {"import.numpy_s": totals["numpy"], "import.scipy_s": totals["scipy"],
            "import.susyjc_s": totals["susyjc"] - nested_in_susyjc}
