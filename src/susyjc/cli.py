"""Command-line surface: spectrum sweeps, crossing tables, Wigner grids,
algebra verification, and factorizable-model reports, as CSV or JSON.

Each subcommand builds one table of named columns, and one emitter renders
it as CSV or JSON, two renderings of the same table. Output is
byte-reproducible: floats are printed via repr (shortest round-trip), sweep
points are evaluated one after another in sweep order, files are UTF-8 with
LF endings.

Exit codes: 0 ok, 2 usage or parameter error (including a non-finite number,
a config value its flag would not accept, a number outside BOUNDS, or
sweep points above MAX_POINTS, all refused before any work, parameters
that overflow, a result that is not finite in the requested units, and an
output file that cannot be written), 3 truncation did not converge
(including a pinned cutoff that certifies fewer than the 3 levels far
needs), 4 internal consistency failure (factorization mismatch, phase-space
support overflow, failed verification). errors.py sets each error's code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .algebra import run_all_checks
from .errors import DegenerateCouplings, SusyJCError
from .far import constraint_check, far_chains, far_from_alphas, far_spectrum_shape
from .hilbert import HilbertConfig, ModelParams, parity_chains
from .jc import (LABEL_MODELS, DressedLabel, ground_state_critical,
                 lowest_closed_levels, reduced_density)
from .oracle import (CAP_N_MAX, certify_cutoff, certify_truncation, eigenvalues,
                     find_crossings)
from .wigner import numeric_evaluator, wigner_closed_jc, wigner_grid

__all__ = ["main"]

# the sweepable flag of each model, which takes a number or min:max:points;
# the closed forms cover jc.LABEL_MODELS
SWEEP_FLAG = {"jc": "lambda", "ajc": "mu", "ar": "lambda", "far": "alphaR"}
MODELS = tuple(SWEEP_FLAG)

# largest Wigner grid side (the grid holds MAX_POINTS^2 samples), and the
# largest number of points in a min:max:points sweep
MAX_POINTS = 1001

# bounds of the numeric flags, the same as in config.schema.json:
# dest -> (lowest, lowest excluded, highest or None); flags and config
# values alike are refused outside them
BOUNDS = {"levels": (1, False, None), "n_max": (2, False, CAP_N_MAX),
          "points": (16, False, MAX_POINTS),
          **{dest: (0.0, True, None) for dest in
             ("conv_tol", "xtol", "min_gap", "window", "tol", "shape_tol")}}


# stderr prefix of each exit code a library error can carry
ERROR_PREFIX = {2: "parameter error", 3: "convergence failure",
                4: "consistency failure"}


class UsageError(Exception):
    pass


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
# argument handling


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


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and each subcommand's flags as {dest: argparse.Action}."""
    parser = argparse.ArgumentParser(
        prog="susyjc",
        description="Spectral analysis of the JC family of models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, auto=True):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--output", help="output path (default stdout)")
        p.add_argument("--units", choices=("omega0", "absolute"))
        p.add_argument("--n-max", dest="n_max", type=int,
                       help="fixed Fock cutoff")
        if auto:
            p.add_argument("--auto", action="store_const", const=True,
                           help="auto-converge the cutoff (default when "
                                "--n-max is absent; exclusive with it)")

    def sweep(p):  # spectrum and crossings
        p.add_argument("--model", choices=MODELS)
        p.add_argument("--omega", type=float)
        p.add_argument("--omega0", type=float)
        p.add_argument("--lambda",
                       help="rotating coupling; sweep syntax min:max:points")
        p.add_argument("--mu", help="counter-rotating coupling; sweepable "
                                    "for --model ajc")
        p.add_argument("--theta", type=float)
        p.add_argument("--alpha0", type=float)
        p.add_argument("--alphaQ", type=float)
        p.add_argument("--alphaR", help="factorization coefficient; sweep "
                                        "syntax min:max:points")
        p.add_argument("--levels", type=int)
        p.add_argument("--conv-tol", dest="conv_tol", type=float)

    p = sub.add_parser("spectrum", help="lowest levels along a coupling sweep")
    common(p)
    sweep(p)

    p = sub.add_parser("crossings", help="level crossings along a sweep")
    common(p)
    sweep(p)
    p.add_argument("--xtol", type=float)
    p.add_argument("--min-gap", dest="min_gap", type=float,
                   help="accepted for old configs; has no effect")

    p = sub.add_parser("wigner", help="Wigner grid of a dressed level")
    common(p)
    p.add_argument("--model", choices=LABEL_MODELS)
    p.add_argument("--omega", type=float)
    p.add_argument("--omega0", type=float)
    p.add_argument("--lambda", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--label", help="dressed level, e.g. minus:0 or plus:3")
    p.add_argument("--window", type=float)
    p.add_argument("--points", type=int,
                   help=f"grid points per axis, 16 to {MAX_POINTS}")
    p.add_argument("--source", choices=("closed", "numeric"))

    p = sub.add_parser("verify", help="operator-identity residual table")
    common(p, auto=False)  # verify has no cutoff search
    p.add_argument("--tol", type=float)

    p = sub.add_parser("far", help="factorizable-model report")
    common(p)
    p.add_argument("--alpha0", type=float)
    p.add_argument("--alphaQ", type=float)
    p.add_argument("--alphaR", type=float)
    p.add_argument("--levels", type=int)
    p.add_argument("--conv-tol", dest="conv_tol", type=float)
    p.add_argument("--shape-tol", dest="shape_tol", type=float)

    return parser, {name: {a.dest: a for a in p._actions}
                    for name, p in sub.choices.items()}


# defaults, each stated once: _OUTPUT for every subcommand, the groups for
# the subcommands that share their flags (crossings certifies 4 levels)
_OUTPUT = {"format": "csv", "units": "omega0"}
_CERTIFY = {"levels": 11, "conv_tol": 1e-10}
_FREQUENCIES = {"omega": 1.0, "omega0": 1.0}
_SWEEP = {**_FREQUENCIES, **_CERTIFY, "theta": 0.0, "alpha0": 0.01, "alphaQ": 1.0}
DEFAULTS = {
    "spectrum": _SWEEP,
    "crossings": {**_SWEEP, "levels": 4, "xtol": 1e-9},
    "wigner": {**_FREQUENCIES, "model": "jc", "lambda": 0.0, "mu": 0.0,
               "window": 3.0, "points": 101, "source": "closed"},
    "verify": {"n_max": 64, "tol": 1e-12},
    "far": {**_CERTIFY, "shape_tol": 1e-8},
}


def _config_value(action: argparse.Action, key: str, value):
    """A config-file value, checked and converted as its flag would be:
    through the flag's type and choices. A sweep flag takes a number or a
    string, a switch such as --auto a boolean, any other untyped flag a
    string; a boolean is never a number."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if action.nargs == 0:
        ok, want = isinstance(value, bool), "true or false"
    elif action.type is not None:
        want = "an integer" if action.type is int else "a number"
        ok = is_number or isinstance(value, str)
        if action.type is int and isinstance(value, float):
            ok = value.is_integer()
        if ok:
            try:
                value = action.type(value)
            except (ValueError, OverflowError):
                ok = False
    elif action.dest in SWEEP_FLAG.values():
        ok, want = is_number or isinstance(value, str), "a number or min:max:points"
    else:
        ok, want = isinstance(value, str), "a string"
    if ok and action.choices is not None:
        ok, want = value in action.choices, "one of " + ", ".join(action.choices)
    if not ok:
        raise UsageError(f"config key {key!r} must be {want}, got {value!r}")
    return value


def _merge_config(args: argparse.Namespace, actions: dict) -> dict:
    """Flags first, then config-file values, then hard defaults. actions maps
    each flag dest of the subcommand to its argparse.Action."""
    merged = dict(vars(args))
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                from_file = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(from_file, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in from_file.items():
            if key not in actions or key not in merged:
                raise UsageError(f"unknown config key {key!r} for "
                                 f"subcommand {args.command!r}")
            value = _config_value(actions[key], key, value)
            if merged[key] is None:
                merged[key] = value
    for key, value in {**_OUTPUT, **DEFAULTS[args.command]}.items():
        if merged.get(key) is None:
            merged[key] = value
    if merged.get("n_max") is not None and merged.get("auto"):
        raise UsageError("--n-max and --auto are mutually exclusive")
    for key, value in merged.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{_flag(key)} must be finite, got {value!r}")
    for key, (low, low_excluded, high) in BOUNDS.items():
        value = merged.get(key)
        if value is None:
            continue
        if value < low or (low_excluded and value == low):
            word = "above" if low_excluded else "at least"
            raise UsageError(f"{_flag(key)} must be {word} {low}, got {value!r}")
        if high is not None and value > high:
            raise UsageError(f"{_flag(key)} must be at most {high}, got {value!r}")
    return merged


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(merged: dict, key: str, why: str):
    if merged.get(key) is None:
        raise UsageError(f"{_flag(key)} is required {why}")
    return merged[key]


def _energy_unit(merged: dict, model: str) -> tuple[float, str]:
    """Scale for reported energies/couplings. The factorizable model derives
    its own frequencies from the alphas, so it always reports absolute."""
    if model == "far" or merged["units"] == "absolute":
        return 1.0, "absolute"
    if merged["omega0"] == 0.0:
        raise UsageError("--units omega0 needs a nonzero --omega0")
    return merged["omega0"], "omega0"


# ---------------------------------------------------------------------------
# subcommands


def _sweep(merged: dict, model: str):
    """The model's inputs, read once: (sweep values, points or None for a
    bare number, at), where at(x) gives the parity-chain builder n_max ->
    ParityChains at sweep value x and the parameters it builds from
    (FarParams for far, else ModelParams)."""
    values, points = _parse_sweep(_require(merged, SWEEP_FLAG[model],
                                           f"for --model {model}"))
    if model == "far":
        def at(x):
            fp = far_from_alphas(merged["alpha0"], merged["alphaQ"], x)
            return (lambda n: far_chains(HilbertConfig(n), fp)), fp
        return values, points, at
    fixed = {"omega": merged["omega"], "omega0": merged["omega0"],
             "theta": merged["theta"]}
    if model == "ar":
        mu, mu_points = _parse_sweep("0.0" if merged["mu"] is None
                                     else merged["mu"])
        if mu_points is not None:
            raise UsageError("--mu must be a scalar for --model ar")
        fixed["mu"] = mu[0]
    coupling = "mu" if model == "ajc" else "lam"

    def at(x):
        params = ModelParams(**fixed, **{coupling: x})
        return (lambda n: parity_chains(HilbertConfig(n), params, model)), params
    return values, points, at


def _certify(builder, merged: dict):
    """The lowest --levels of builder's chains, certified to --conv-tol."""
    return certify_truncation(builder, k_levels=merged["levels"],
                              tol=merged["conv_tol"])


def cmd_spectrum(merged: dict) -> int:
    model = _require(merged, "model", "for spectrum")
    levels = merged["levels"]
    sweep, _, at = _sweep(merged, model)
    unit, units_name = _energy_unit(merged, model)

    xs, ks, energies, closed = [], [], [], []
    for x in sweep:
        try:
            builder, params = at(x)
        except DegenerateCouplings as exc:
            print(f"susyjc: skipping sweep point {x!r}: {exc}", file=sys.stderr)
            continue
        found = (_certify(builder, merged).eigenvalues if merged["n_max"] is None
                 else eigenvalues(builder(merged["n_max"])))[:levels].tolist()
        xs += [x] * len(found)
        ks += range(len(found))
        energies += found
        closed += (lowest_closed_levels(params, len(found), model)
                   if model in LABEL_MODELS else [(None, None)] * len(found))

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
    model = _require(merged, "model", "for crossings")
    sweep, points, at = _sweep(merged, model)
    if points is None:
        raise UsageError("crossings need a min:max:points sweep")
    lo, hi = sweep[0], sweep[-1]
    unit, units_name = _energy_unit(merged, model)

    n_max = merged["n_max"]
    if n_max is None:
        # certify at the end of larger magnitude (the most demanding point)
        end = lo if abs(lo) > abs(hi) else hi
        n_max = _certify(at(end)[0], merged).n_max_used

    records = find_crossings(lambda x: at(x)[0](n_max), (lo, hi),
                             grid_points=max(3, points), xtol=merged["xtol"],
                             label_model=model if model in LABEL_MODELS else None)

    # labels, and so closed forms, only where find_crossings gave them
    couplings = [float(rec.coupling) for rec in records]
    closed = [ground_state_critical(rec.right.n_total, at(x)[1])
              if rec.right is not None and rec.right.n_total >= 1 else None
              for rec, x in zip(records, couplings)]
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
    label = _parse_label(_require(merged, "label", "for wigner"), model)
    params = ModelParams(omega=merged["omega"], omega0=merged["omega0"],
                         lam=merged["lambda"], mu=merged["mu"])
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
        if merged.get("n_max") is not None:
            n_max = merged["n_max"]
        else:
            corner = 2.0 * window * window
            margin = min(corner + 6.0 * math.sqrt(corner) + 30, CAP_N_MAX + 1)
            n_max = label.n_total + int(math.ceil(margin))
            if n_max > CAP_N_MAX:
                raise UsageError(f"--window {window!r} with --label "
                                 f"{merged['label']} needs a cutoff above "
                                 f"{CAP_N_MAX}")
        rho = reduced_density(label, params, "boson", HilbertConfig(n_max))
        evaluator = numeric_evaluator(rho)

    grid = wigner_grid(evaluator, window=window, points=points)
    _emit(merged, {"kind": "wigner", "model": model,
                   "label": f"{label.branch}:{label.n_total}",
                   "source": merged["source"], "window": window,
                   "points": points,
                   "normalization_integral": float(grid.normalization_integral)},
          {"re_alpha": np.repeat(grid.re_alpha, points).tolist(),
           "im_alpha": np.tile(grid.im_alpha, points).tolist(),
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
           "truncation_sensitive": [bool(rep.truncation_sensitive)
                                    for rep in reports],
           "residual": [float(rep.residual) for rep in reports],
           "passed": passed})
    return 0 if all(passed) else 4


def cmd_far(merged: dict) -> int:
    for key in ("alpha0", "alphaQ", "alphaR"):
        _require(merged, key, "for far")
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
                  "has_unique_ground": bool(shape.has_unique_ground)},
        "n_max_used": sol.n_max_used,
        "converged_levels": sol.converged_levels})
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser, actions = _build_parser()
    try:
        args = parser.parse_args(argv)
        merged = _merge_config(args, actions[args.command])
        handler = {"spectrum": cmd_spectrum, "crossings": cmd_crossings,
                   "wigner": cmd_wigner, "verify": cmd_verify,
                   "far": cmd_far}[args.command]
        # overflows are refused by explicit checks, not numpy's warnings
        with np.errstate(all="ignore"):
            return handler(merged)
    except UsageError as exc:
        print(f"susyjc: error: {exc}", file=sys.stderr)
        return 2
    except (SusyJCError, ValueError, OverflowError) as exc:
        code = getattr(exc, "exit_code", 2)
        print(f"susyjc: {ERROR_PREFIX[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
