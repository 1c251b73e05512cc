"""Correctness checks on every benchmark job.

A job passes when
  * its exit code is the one a correct build gives (``Job.expect_exit``),
  * its JSON output validates against the package's own output schema,
  * its numbers match the reference outputs recorded at the reference
    commit: integers, strings and flags exactly, floats within
    ATOL + RTOL * |reference| (not bytewise, because a new eigensolver may
    change the last digits),
  * every row with a closed form agrees with it within RESIDUAL_TOL,
  * and a rerun of the job within one benchmark invocation gives the same
    bytes and exit code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

ATOL = 1e-8
RTOL = 1e-9
# largest |numeric - closed form| a passing row may show, in output units
RESIDUAL_TOL = 1e-8
# reference rows kept per output: the first, the last and evenly spaced ones
SAMPLE_ROWS = 24


def _scalar(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _flatten(obj, prefix="") -> dict:
    out = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def parse_output(fmt: str, data: bytes):
    """(meta, rows) of one output: meta holds JSON fields outside 'rows'."""
    text = data.decode("utf-8")
    if fmt == "text":
        return {}, []
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        return {}, [{k: _scalar(v) for k, v in row.items()} for row in reader]
    return split_payload(json.loads(text))


def split_payload(payload: dict):
    rest = dict(payload)
    rows = rest.pop("rows", [])
    return _flatten(rest), rows


def sample_indices(n: int) -> list[int]:
    if n <= SAMPLE_ROWS:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLE_ROWS - 1)) for i in range(SAMPLE_ROWS)})


def reference_entry(run, exit_code: int, fmt: str, data: bytes) -> dict:
    """What record.py stores for one job variant."""
    meta, rows = parse_output(fmt, data)
    return {"args": run.args, "exit": exit_code, "nrows": len(rows),
            "meta": meta,
            "sample": {str(i): rows[i] for i in sample_indices(len(rows))}}


def close(a, b) -> bool:
    """a (new) matches b (reference) under the stated tolerances."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= ATOL + RTOL * abs(b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return a == b


def compare(ref: dict, meta: dict, rows: list, ignore=()) -> list[str]:
    """Differences between a parsed output and its reference entry. Fields
    the reference lacks are not compared, so added output fields pass."""
    problems = []
    if len(rows) != ref["nrows"]:
        problems.append(f"{len(rows)} rows, reference has {ref['nrows']}")
        return problems
    for key, want in ref["meta"].items():
        if key not in ignore and not close(meta.get(key), want):
            problems.append(f"{key}={meta.get(key)!r}, reference {want!r}")
    for idx, ref_row in ref["sample"].items():
        row = rows[int(idx)]
        for key, want in ref_row.items():
            if key not in ignore and not close(row.get(key), want):
                problems.append(f"row {idx} {key}={row.get(key)!r}, reference {want!r}")
    return problems


def _present(value) -> bool:
    return value not in ("", None)


def closed_residuals(rows: list) -> list[float]:
    """|numeric - closed form| of every spectrum or crossing row that has a
    closed form, recomputed from the printed columns."""
    out = []
    for row in rows:
        if _present(row.get("closed_form_energy")):
            out.append(abs(row["energy"] - row["closed_form_energy"]))
        elif _present(row.get("lambda_closed")):
            out.append(abs(row["lambda_numeric"] - row["lambda_closed"]))
    return out


def grid_residual(numeric: list, closed: list, stride: int) -> float:
    """Largest |W_numeric - W_closed| over the numeric grid's points, given
    (re_alpha, im_alpha, w) triples; the closed grid is ``stride`` times finer
    and shares every stride-th point."""
    points = int(round(len(numeric) ** 0.5))
    fine = (points - 1) * stride + 1
    if points * points != len(numeric) or fine * fine != len(closed):
        raise ValueError("grids do not nest")
    worst = 0.0
    for i in range(points):
        for j in range(points):
            re_n, im_n, w_n = numeric[i * points + j]
            re_c, im_c, w_c = closed[(i * stride) * fine + j * stride]
            if abs(re_n - re_c) > 1e-12 or abs(im_n - im_c) > 1e-12:
                raise ValueError("grid points differ")
            worst = max(worst, abs(w_n - w_c))
    return worst


def schema_sample(payload: dict) -> dict:
    """The payload with one row per distinct row shape. Rows that differ only
    in float values validate alike, because the output schema bounds no
    float; validating every row of a large grid would take minutes."""
    if "rows" not in payload:
        return payload
    shapes = {}
    for row in payload["rows"]:
        shape = tuple((k, type(v).__name__, None if isinstance(v, float) else repr(v))
                      for k, v in row.items())
        shapes.setdefault(shape, row)
    return dict(payload, rows=list(shapes.values()))


class Checker:
    """Checks the jobs of one benchmark invocation against the references.

    An output whose bytes were checked before in this invocation is not
    checked again: the same bytes give the same verdict."""

    def __init__(self, references: dict, schema: dict):
        import jsonschema

        self.references = references
        self.validator = jsonschema.Draft202012Validator(schema)
        self.first_digest: dict[str, str] = {}
        self.verdicts: dict = {}
        self.residuals: list[float] = []

    def check_batch(self, results: list, context: str = "") -> dict[str, list[str]]:
        """Problems with the outputs of one finished batch, per job key;
        results hold (JobRun, exit_code, stdout) in batch order. Exit codes
        are checked by the caller. Reruns must repeat the bytes of earlier
        runs in the same context only: a job run with other thread counts
        may change the last digits."""
        problems, grids, digests = {}, {}, {}
        paired = {r.job.follows for r, _, _ in results} | \
            {r.job.name for r, _, _ in results if r.job.follows}
        for run, exit_code, data in results:
            digest = hashlib.sha256(b"%d:" % exit_code + data).hexdigest()
            found = []
            if self.first_digest.setdefault((context, run.key), digest) != digest:
                found.append("rerun gave different bytes")
            key = (run.key, digest)
            if key not in self.verdicts:
                self.verdicts[key] = self._verdict(run, data, run.job.name in paired)
            content, grids[run.job.name] = self.verdicts[key]
            problems[run.key] = found + content
            digests[run.job.name] = digest
        for run, _, _ in results:
            lead = run.job.follows
            if lead is None:
                continue
            key = (run.key, digests[lead], digests[run.job.name])
            if key not in self.verdicts:
                self.verdicts[key] = self._grid_verdict(
                    grids[lead], grids[run.job.name], run.job.stride)
            problems[run.key] += self.verdicts[key]
        return problems

    def _verdict(self, run, data: bytes, keep_grid: bool):
        """(problems, grid triples or None) of one output."""
        try:
            found, rows = self._check_content(run, data)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"], None
        grid = None
        if keep_grid:
            grid = [(r["re_alpha"], r["im_alpha"], r["w"]) for r in rows]
        return found, grid

    def _grid_verdict(self, numeric, closed, stride: int) -> list[str]:
        if numeric is None or closed is None:
            return ["grid comparison skipped: unreadable output"]
        try:
            worst = grid_residual(numeric, closed, stride)
        except ValueError as exc:
            return [f"grid comparison failed: {exc}"]
        self.residuals.append(worst)
        if worst > RESIDUAL_TOL:
            return [f"numeric grid off closed form by {worst:.3e}"]
        return []

    def _check_content(self, run, data: bytes):
        job = run.job
        if job.fmt == "text":
            return ([] if data.startswith(b"usage: susyjc") else ["no usage text"]), []
        found = []
        if job.fmt == "json":
            payload = json.loads(data)
            error = next(self.validator.iter_errors(schema_sample(payload)), None)
            if error is not None:
                found.append(f"schema: {error.message[:200]}")
            meta, rows = split_payload(payload)
        else:
            meta, rows = parse_output(job.fmt, data)
        ref = self.references.get(run.key)
        if ref is None:
            found.append("no reference output")
        else:
            found += compare(ref, meta, rows, job.ignore)
        residuals = closed_residuals(rows)
        self.residuals += residuals
        if residuals and max(residuals) > RESIDUAL_TOL:
            found.append(f"closed-form residual {max(residuals):.3e}")
        return found, rows
