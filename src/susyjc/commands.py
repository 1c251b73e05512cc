"""The subcommands, run on a config that cli.main has parsed and merged.

Each subcommand builds one table of named columns, and one emitter renders
it as CSV or JSON, two renderings of the same table. Output is
byte-reproducible: floats are printed via repr (shortest round-trip), sweep
points are evaluated one after another in sweep order, files are UTF-8 with
LF endings.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import numpy as np

from .algebra import run_all_checks
from .cli import MAX_POINTS, SWEEP_FLAG, UsageError
from .errors import DegenerateCouplings, SupportExceeded
from .far import constraint_check, far_chains, far_from_alphas, far_spectrum_shape
from .hilbert import JC_AJC, HilbertConfig, ModelParams, parity_chains
from .jc import (LABEL_MODELS, DressedLabel, ground_state_critical,
                 lowest_closed_levels, reduced_density)
from .oracle import (CAP_N_MAX, certify_cutoff, certify_truncation, eigenvalues,
                     find_crossings)
from .wigner import numeric_evaluator, wigner_closed_jc, wigner_grid

__all__ = ["run"]


# ---------------------------------------------------------------------------
# formatting and output plumbing


def _cell(value) -> str:
    """CSV text of a table value: None is empty, bools are true/false, and
    the str of a Python float is its shortest round-trip repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _fields(payload: dict):
    """(field, value) pairs of a nested payload in insertion order."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _fields(value)
        else:
            yield key, value


def _write_text(path, text: str) -> None:
    data = text.encode("utf-8")
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    else:
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise UsageError(f"cannot write output file: {exc}")


def _emit(merged: dict, header: dict, columns: dict | None = None) -> None:
    """Write one table, its header scalars and its named columns of Python
    scalars, as JSON (the header plus the rows zipped from the columns) or
    as CSV (the columns under their names). far has no columns: its CSV is
    the header without its kind, flattened into a field,value table with
    lists joined by ';'. A non-finite float refuses the whole table before
    anything is written."""
    fields = list(_fields(header))
    columns = columns or {}
    floats = [v for col in ([v for _, v in fields], *columns.values())
              for v in col if isinstance(v, float)]
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        raise UsageError(f"a result is {floats[bad[0]]!r} in the requested "
                         "units; the parameters are too large or --omega0 "
                         "too small")
    if merged["format"] == "json":
        if columns:
            header = {**header, "rows": [dict(zip(columns, row))
                                         for row in zip(*columns.values())]}
        text = json.dumps(header, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"
    else:
        if columns:
            rows = zip(*(map(_cell, col) for col in columns.values()))
        else:
            columns = ("field", "value")
            rows = ((k, ";".join(map(_cell, v)) if isinstance(v, list)
                     else _cell(v)) for k, v in fields if k != "kind")
        # minimal quoting keeps numeric fields bare while making fields that
        # contain commas (identity names) round-trip through csv readers
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        text = buf.getvalue()
    _write_text(merged.get("output"), text)


# ---------------------------------------------------------------------------
# merged values the subcommands read


def _parse_sweep(text) -> tuple[list[float], int | None]:
    """'min:max:points' -> (values, points); a bare number is a zero-width
    sweep with points=None."""
    text = str(text)
    if ":" not in text:
        try:
            value = float(text)
        except ValueError:
            raise UsageError(f"expected a number or min:max:points, got {text!r}")
        if not math.isfinite(value):
            raise UsageError(f"expected a finite number, got {text!r}")
        return [value], None
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"sweep must be min:max:points, got {text!r}")
    try:
        lo, hi, pts = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"could not parse sweep {text!r}")
    if not 2 <= pts <= MAX_POINTS:
        raise UsageError(f"sweep needs 2 to {MAX_POINTS} points, got {pts}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise UsageError("sweep needs finite min < max")
    return [float(x) for x in np.linspace(lo, hi, pts)], pts


def _energy_unit(merged: dict, model: str) -> tuple[float, str]:
    """Scale for reported energies/couplings: a positive --omega0, or 1 for
    --units absolute and for far, whose frequencies come from the alphas."""
    if model == "far" or merged["units"] == "absolute":
        return 1.0, "absolute"
    if not merged["omega0"] > 0.0:
        raise UsageError(f"--units omega0 needs a positive --omega0, got "
                         f"{merged['omega0']!r}; use --units absolute")
    return merged["omega0"], "omega0"


# ---------------------------------------------------------------------------
# subcommands


def _sweep(merged: dict, model: str):
    """The model's inputs, read once: (sweep values, points or None for a
    bare number, at), where at(x) gives the parity-chain builder n_max ->
    ParityChains at sweep value x and the parameters it builds from
    (FarParams for far, else ModelParams)."""
    values, points = _parse_sweep(merged[SWEEP_FLAG[model]])
    if model == "far":
        def at(x):
            fp = far_from_alphas(merged["alpha0"], merged["alphaQ"], x)
            return (lambda n: far_chains(HilbertConfig(n), fp)), fp
        return values, points, at
    fixed = {"omega": merged["omega"], "omega0": merged["omega0"]}
    if model == "ar":
        mu, mu_points = _parse_sweep(merged["mu"])
        if mu_points is not None:
            raise UsageError("--mu must be a scalar for --model ar")
        fixed["mu"] = mu[0]
    coupling = JC_AJC[model].coupling if model in JC_AJC else "lam"  # ar sweeps lam

    def at(x):
        params = ModelParams(**fixed, **{coupling: x})
        return (lambda n: parity_chains(HilbertConfig(n), params, model)), params
    return values, points, at


def _certify(builder, merged: dict):
    """The lowest --levels of builder's chains, certified to --conv-tol."""
    return certify_truncation(builder, k_levels=merged["levels"],
                              tol=merged["conv_tol"])


def cmd_spectrum(merged: dict) -> int:
    model = merged["model"]
    levels = merged["levels"]
    sweep, points, at = _sweep(merged, model)
    unit, units_name = _energy_unit(merged, model)

    xs, ks, energies, closed = [], [], [], []
    skipped = None
    for x in sweep:
        try:
            builder, params = at(x)
        except DegenerateCouplings as exc:
            if points is None:  # a bare value has no other point to show
                raise
            print(f"susyjc: skipping sweep point {x!r}: {exc}", file=sys.stderr)
            skipped = exc
            continue
        found = (_certify(builder, merged).eigenvalues if merged["n_max"] is None
                 else eigenvalues(builder(merged["n_max"])))[:levels].tolist()
        xs += [x] * len(found)
        ks += range(len(found))
        energies += found
        closed += (lowest_closed_levels(params, len(found), model)
                   if model in LABEL_MODELS else [(None, None)] * len(found))
    if not xs:  # every point was skipped: no data to show
        raise skipped

    labels = [label for _, label in closed]
    _emit(merged, {"kind": "spectrum", "model": model,
                   "sweep_parameter": SWEEP_FLAG[model], "units": units_name,
                   "levels": levels, "n_max": merged["n_max"]},
          {"sweep_value": [x / unit for x in xs],
           "level_index": ks,
           "energy": [e / unit for e in energies],
           "label_branch": [None if lab is None else lab.branch
                            for lab in labels],
           "label_N": [None if lab is None else int(lab.n_total)
                       for lab in labels],
           "closed_form_energy": [None if c is None else c / unit
                                  for c, _ in closed],
           "residual": [None if c is None else abs(e - c) / unit
                        for e, (c, _) in zip(energies, closed)]})
    return 0


def cmd_crossings(merged: dict) -> int:
    model = merged["model"]
    sweep, points, at = _sweep(merged, model)
    if points is None:
        raise UsageError("crossings need a min:max:points sweep")
    lo, hi = sweep[0], sweep[-1]
    unit, units_name = _energy_unit(merged, model)
    if model == "far":
        # far_from_alphas refuses the isotropic line |alphaR| == |alphaQ|, so
        # a search across it would bracket a crossing at a point it refuses
        for line in (-abs(merged["alphaQ"]), abs(merged["alphaQ"])):
            try:
                if lo <= line <= hi:
                    at(line)
            except DegenerateCouplings:
                raise DegenerateCouplings(
                    f"the --alphaR sweep crosses the isotropic line |alphaR| == "
                    f"|alphaQ| at alphaR = {line!r}; sweep each side of it") from None

    n_max = merged["n_max"]
    if n_max is None:
        # certify at the end of larger magnitude (the most demanding point)
        end = lo if abs(lo) > abs(hi) else hi
        n_max = _certify(at(end)[0], merged).n_max_used

    records = find_crossings(lambda x: at(x)[0](n_max), (lo, hi),
                             grid_points=max(3, points), xtol=merged["xtol"],
                             label_model=model if model in LABEL_MODELS else None)

    # labels, and so closed forms, only where find_crossings gave them. The
    # ground state hops from sector N-1 to N as |coupling| grows: into the
    # right label at positive coupling, out of the left one at negative
    couplings = [float(rec.coupling) for rec in records]
    closed = []
    for rec, x in zip(records, couplings):
        sign, hop = (-1.0, rec.left) if x < 0 else (1.0, rec.right)
        closed.append(sign * ground_state_critical(hop.n_total, at(x)[1])
                      if hop is not None and hop.n_total >= 1 else None)
    lefts = [rec.left for rec in records]
    rights = [rec.right for rec in records]

    _emit(merged, {"kind": "crossings", "model": model, "units": units_name,
                   "grid_points": max(3, points), "n_max": n_max},
          {"branch": [None if lab is None else lab.branch for lab in rights],
           "M": [None if lab is None else lab.n_total for lab in lefts],
           "N": [None if lab is None else lab.n_total for lab in rights],
           "lambda_closed": [None if c is None else c / unit for c in closed],
           "lambda_numeric": [x / unit for x in couplings],
           "residual": [None if c is None else abs(c - x) / unit
                        for c, x in zip(closed, couplings)]})
    return 0


def _parse_label(text: str, model: str) -> DressedLabel:
    parts = str(text).split(":")
    if len(parts) != 2 or parts[0] not in ("minus", "plus"):
        raise UsageError(f"--label must be minus:N or plus:N, got {text!r}")
    # ASCII digits only: int() also reads signs, spaces and underscores
    if not (parts[1].isascii() and parts[1].isdigit()):
        raise UsageError(f"--label N must be an integer, got {parts[1]!r}")
    return DressedLabel(parts[0], int(parts[1]), model)


def cmd_wigner(merged: dict) -> int:
    model = merged["model"]
    label = _parse_label(merged["label"], model)
    params = ModelParams(omega=merged["omega"], omega0=merged["omega0"], **{
        JC_AJC[model].coupling: merged[SWEEP_FLAG[model]]})
    window = merged["window"]
    points = merged["points"]

    if merged["source"] == "closed":
        # the Laguerre recurrence runs N steps; the numeric source is bounded
        # by its cutoff, which must hold the level and is at most CAP_N_MAX
        if label.n_total > CAP_N_MAX:
            raise UsageError(f"--label N must be at most {CAP_N_MAX}, "
                             f"got {label.n_total}")
        evaluator = lambda alpha: wigner_closed_jc(label, params, alpha)
    else:
        if merged["n_max"] is not None:
            n_max = merged["n_max"]
        else:
            corner = 2.0 * window * window
            margin = min(corner + 6.0 * math.sqrt(corner) + 30, CAP_N_MAX + 1)
            n_max = label.n_total + int(math.ceil(margin))
            if n_max > CAP_N_MAX:
                raise UsageError(f"--window {window!r} with --label "
                                 f"{merged['label']} needs a cutoff above "
                                 f"{CAP_N_MAX}")
            # the grid's first point is its corner, where the displaced Fock-N
            # state classically reaches photon number (sqrt(N) + |alpha|)^2;
            # a cutoff below that turning point fails there
            turning = (math.sqrt(label.n_total) + math.sqrt(corner)) ** 2
            if n_max < turning:
                raise SupportExceeded(
                    f"the displaced level reaches photon number {turning:.1f} "
                    f"at the grid's corner, above the derived cutoff {n_max}; "
                    "set a larger --n-max")
        rho = reduced_density(label, params, "boson", HilbertConfig(n_max))
        evaluator = numeric_evaluator(rho)

    grid = wigner_grid(evaluator, window=window, points=points)
    _emit(merged, {"kind": "wigner", "model": model,
                   "label": f"{label.branch}:{label.n_total}",
                   "source": merged["source"], "window": window,
                   "points": points,
                   "normalization_integral": grid.normalization_integral},
          {"re_alpha": np.repeat(grid.axis, points).tolist(),
           "im_alpha": np.tile(grid.axis, points).tolist(),
           "w": grid.values.ravel().tolist()})
    return 0


def cmd_verify(merged: dict) -> int:
    n_max = merged["n_max"]
    tol = merged["tol"]
    reports = run_all_checks(HilbertConfig(n_max))
    passed = [bool(rep.passes(tol)) for rep in reports]
    _emit(merged, {"kind": "verify", "n_max": n_max, "tolerance": tol,
                   "all_pass": all(passed)},
          {"identity": [rep.identity_name for rep in reports],
           "projector": [rep.projector for rep in reports],
           "truncation_sensitive": [rep.truncation_sensitive
                                    for rep in reports],
           "residual": [float(rep.residual) for rep in reports],
           "passed": passed})
    return 0 if all(passed) else 4


def cmd_far(merged: dict) -> int:
    (alpha_r,), _, at = _sweep(merged, "far")
    builder, fp = at(alpha_r)
    if merged["n_max"] is not None:
        # the shape report needs certified levels, so a pinned cutoff is
        # still checked against its double
        sol = certify_cutoff(builder, merged["n_max"], tol=merged["conv_tol"])
    else:
        sol = _certify(builder, merged)
    shape = far_spectrum_shape(sol, tol=merged["shape_tol"])

    _emit(merged, {
        "kind": "far", "alpha0": merged["alpha0"],
        "alphaQ": merged["alphaQ"], "alphaR": alpha_r,
        "effective": {"omega": fp.omega, "omega0": fp.omega0,
                      "lambda": fp.lam, "mu": fp.mu,
                      "phi_lambda": fp.phi_lambda, "phi_mu": fp.phi_mu,
                      "omega_c": fp.omega_c},
        "constraints": constraint_check(fp),
        "shape": {"ground_energy": float(shape.ground_energy),
                  "spacing": float(shape.spacing),
                  "degeneracies": list(shape.degeneracies),
                  "is_equidistant": bool(shape.is_equidistant),
                  "has_unique_ground": shape.has_unique_ground},
        "n_max_used": sol.n_max_used,
        "converged_levels": sol.converged_levels})
    return 0


def run(command: str, merged: dict) -> int:
    """Run one subcommand on its merged config; returns its exit code."""
    handler = {"spectrum": cmd_spectrum, "crossings": cmd_crossings,
               "wigner": cmd_wigner, "verify": cmd_verify,
               "far": cmd_far}[command]
    # overflows are refused by explicit checks, not numpy's warnings
    with np.errstate(all="ignore"):
        return handler(merged)
