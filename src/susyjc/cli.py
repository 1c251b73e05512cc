"""Command-line surface: the argv parser, the config merge, and exit codes.

Parsing, the config merge and every refusal they raise use only the
standard library: --help and a refused argv exit before numpy or any
numeric module loads. Each subcommand's parser takes the flags that its
runs in RUNS read, declared once in FLAGS. main hands an accepted argv to
commands, which runs the subcommand and renders its table. Run as a
process (python -m susyjc or the susyjc script), the CLI gives BLAS one
thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set; a call of
main(argv) leaves the environment as it is. main returns the exit code in
every case, --help and argparse's refusals included.

Exit codes: 0 ok, 2 usage or parameter error (including a flag its run in
RUNS does not read or requires, a non-finite number, a config value its
flag would not accept, a number outside BOUNDS, or sweep points above
MAX_POINTS, all refused before any work, parameters that overflow, a
result that is not finite in the requested units, and an output file that
cannot be written), 3 truncation did not converge (including a pinned
cutoff that certifies fewer than the 3 levels far needs), 4 internal
consistency failure (phase-space support overflow, failed verification).
errors.py sets each error's code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .constants import CAP_N_MAX, LABEL_MODELS
from .errors import SusyJCError

__all__ = ["main"]

# the sweepable flag of each model, which takes a number or min:max:points;
# the closed forms cover LABEL_MODELS
SWEEP_FLAG = {"jc": "lambda", "ajc": "mu", "ar": "lambda", "far": "alphaR"}
MODELS = tuple(SWEEP_FLAG)

# largest Wigner grid side (the grid holds MAX_POINTS^2 samples), and the
# largest number of points in a min:max:points sweep
MAX_POINTS = 1001

# bounds of the numeric flags, the same as in config.schema.json:
# dest -> (lowest, lowest excluded, highest or None); flags and config
# values alike are refused outside them. Below the window's bound its
# square underflows, and a numeric Wigner grid slows by orders of magnitude
BOUNDS = {"levels": (1, False, None), "n_max": (2, False, CAP_N_MAX),
          "points": (16, False, MAX_POINTS), "window": (1e-150, False, None),
          **{dest: (0.0, True, None) for dest in
             ("conv_tol", "xtol", "tol", "shape_tol")}}


# stderr prefix of each exit code a library error can carry
ERROR_PREFIX = {2: "parameter error", 3: "convergence failure",
                4: "consistency failure"}


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument handling


# The flags each run reads, with their defaults (REQUIRED: none); a run
# refuses any other. A run is keyed by its subcommand and the flags that
# select it: --model, wigner's --source, and "--n-max N" where a pinned
# cutoff replaces certification.
REQUIRED = object()
_EVERY_RUN = {"config": None, "format": "csv", "output": None}
_FREQUENCIES = {"omega": 1.0, "omega0": 1.0}
_MODEL_READS = {"jc": {**_FREQUENCIES, "units": "omega0", "lambda": REQUIRED},
                "ajc": {**_FREQUENCIES, "units": "omega0", "mu": REQUIRED},
                "ar": {**_FREQUENCIES, "units": "omega0", "lambda": REQUIRED,
                       "mu": 0.0},
                "far": {"alpha0": 0.01, "alphaQ": 1.0, "alphaR": REQUIRED}}
_PINNED = (" --n-max N", {"n_max": None})
_AUTO = {"n_max": None, "auto": None, "conv_tol": 1e-10}
RUNS = {
    **{f"{cmd} --model {m}{pin}": {"model": REQUIRED, **reads, **more, **cutoff}
       for cmd, more, auto in (("spectrum", {"levels": 11}, _AUTO),
                               ("crossings", {"xtol": 1e-9}, {**_AUTO, "levels": 4}))
       for m, reads in _MODEL_READS.items()
       for pin, cutoff in (("", auto), _PINNED)},
    **{f"wigner --model {m} --source {source}": {
        "model": m, "source": source, **_FREQUENCIES, SWEEP_FLAG[m]: 0.0,
        "label": REQUIRED, "window": 3.0, "points": 101, **cutoff}
       for m in LABEL_MODELS
       for source, cutoff in (("closed", {}),
                              ("numeric", dict.fromkeys(("n_max", "auto"))))},
    "verify": {"n_max": 64, "tol": 1e-12},
    **{f"far{pin}": {**dict.fromkeys(("alpha0", "alphaQ", "alphaR"), REQUIRED),
                     "conv_tol": 1e-10, "shape_tol": 1e-8, **cutoff}
       for pin, cutoff in (("", {**_AUTO, "levels": 11}), _PINNED)},
}

# the argparse keywords of every flag, in --help order; a subcommand adds
# those that its runs in RUNS read
FLAGS = {
    "config": {"help": "JSON config file; flags override it"},
    "format": {"choices": ("csv", "json")},
    "output": {"help": "output path (default stdout)"},
    "n_max": {"type": int, "help": "fixed Fock cutoff"},
    "auto": {"action": "store_const", "const": True,
             "help": "auto-converge the cutoff (default when --n-max is "
                     "absent; exclusive with it)"},
    "model": {"choices": MODELS},
    "units": {"choices": ("omega0", "absolute")},
    **dict.fromkeys(("omega", "omega0", "lambda", "mu"), {"type": float}),
    "label": {"help": "dressed level, e.g. minus:0 or plus:3"},
    "window": {"type": float},
    "points": {"type": int, "help": f"grid points per axis, 16 to {MAX_POINTS}"},
    "source": {"choices": ("closed", "numeric")},
    **dict.fromkeys(("alpha0", "alphaQ", "alphaR"), {"type": float}),
    "levels": {"type": int},
    **dict.fromkeys(("conv_tol", "xtol", "tol", "shape_tol"), {"type": float}),
}
# spectrum and crossings take a sweep flag as text (a number or
# min:max:points), and wigner's --model takes the closed-form models
_SWEEPS = {"lambda": {"help": "rotating coupling; sweep syntax min:max:points"},
           "mu": {"help": "counter-rotating coupling; sweepable for --model ajc"},
           "alphaR": {"help": "factorization coefficient; sweep syntax "
                              "min:max:points"}}
_FLAGS_OF = {"spectrum": _SWEEPS, "crossings": _SWEEPS,
             "wigner": {"model": {"choices": LABEL_MODELS}}}
_COMMANDS = {"spectrum": "lowest levels along a coupling sweep",
             "crossings": "level crossings along a sweep",
             "wigner": "Wigner grid of a dressed level",
             "verify": "operator-identity residual table",
             "far": "factorizable-model report"}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and each subcommand's flags as {dest: argparse.Action}:
    the flags of FLAGS that the subcommand's runs in RUNS read."""
    parser = argparse.ArgumentParser(
        prog="susyjc",
        description="Spectral analysis of the JC family of models")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        reads = set(_EVERY_RUN).union(*(keys for run, keys in RUNS.items()
                                        if run.split()[0] == command))
        for dest, keywords in FLAGS.items():
            if dest in reads:
                keywords = _FLAGS_OF.get(command, {}).get(dest, keywords)
                p.add_argument(_flag(dest), dest=dest, **keywords)
    return parser, {name: {a.dest: a for a in p._actions if a.dest != "help"}
                    for name, p in sub.choices.items()}


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
    """Flags first, then config-file values, then the defaults of the run
    they select in RUNS; the result holds the flags that run reads. actions
    maps each flag dest of the subcommand to its argparse.Action."""
    merged = {key: value for key, value in vars(args).items()
              if value is not None and key != "command"}
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
            if key not in actions:
                raise UsageError(f"unknown config key {key!r} for "
                                 f"subcommand {args.command!r}")
            merged.setdefault(key, _config_value(actions[key], key, value))
    if "n_max" in merged and merged.get("auto"):
        raise UsageError("--n-max and --auto are mutually exclusive")
    # the run: --model (wigner's defaults to jc), wigner's --source (closed),
    # and a pinned --n-max where the run has a pinned twin
    if args.command == "wigner":
        merged.setdefault("model", "jc")
        merged.setdefault("source", "closed")
    elif args.command in ("spectrum", "crossings") and "model" not in merged:
        raise UsageError(f"--model is required for {args.command}")
    run = args.command + "".join(f" --{key} {merged[key]}" for key in
                                 ("model", "source") if key in merged)
    if "n_max" in merged and run + _PINNED[0] in RUNS:
        run += _PINNED[0]
    reads = {**_EVERY_RUN, **RUNS[run]}
    for key in merged:
        if key not in reads:
            raise UsageError(f"{_flag(key)} is not read by {run}")
    for key, default in reads.items():
        if key not in merged and default is REQUIRED:
            model = merged.get("model")  # a sweep flag is required by its model
            why = f"--model {model}" if key == SWEEP_FLAG.get(model) else args.command
            raise UsageError(f"{_flag(key)} is required for {why}")
        merged.setdefault(key, default)
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


# the variables OpenBLAS reads for its thread count when it loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _one_blas_thread() -> None:
    """Run BLAS on one thread unless the user chose a count. A job is a
    small stacked or tridiagonal solve, where the default pool of one spinning
    worker per CPU costs about a third more CPU for no wall time. The count
    is read when numpy loads, so this acts only before that."""
    if "numpy" in sys.modules or any(v in os.environ for v in _BLAS_THREAD_VARS):
        return
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser, actions = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed --help (0) or a refusal (2)
        return exc.code
    try:
        merged = _merge_config(args, actions[args.command])
        if argv is None:  # a process entry: python -m susyjc or susyjc
            _one_blas_thread()
        # the library, and numpy with it, loads once the argv is accepted
        from .commands import run
        return run(args.command, merged)
    except UsageError as exc:
        print(f"susyjc: error: {exc}", file=sys.stderr)
        return 2
    except (SusyJCError, ValueError, OverflowError) as exc:
        code = getattr(exc, "exit_code", 2)
        print(f"susyjc: {ERROR_PREFIX[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
