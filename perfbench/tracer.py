"""Run one susyjc CLI job with spans around the public functions of each layer.

    python3 perfbench/tracer.py SPANS_JSON JOB_ID -- <susyjc arguments>

The job runs in this fresh interpreter exactly as ``python -m susyjc`` would
run it: same stdout bytes, same exit code, no state shared with other jobs.
Spans are kept in memory and written to SPANS_JSON when the job ends. The
package is not edited: each traced function is replaced, from outside, in
every ``susyjc.*`` namespace that binds it, because ``cli`` imports names
directly. A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time

# dense Hermitian eigensolve with eigenvectors, counted as 9 n^3 flops
# (tridiagonal reduction plus implicit QR with vector accumulation)
EIGH_FLOPS_PER_N3 = 9


def _first_arg_dim(bound, result):
    n = int(next(iter(bound.arguments.values())).shape[0])
    return {"dim": n, "flops": EIGH_FLOPS_PER_N3 * n ** 3}


def _certify_counts(bound, result):
    start = int(bound.arguments["start_n_max"])
    used = int(result.n_max_used)
    return {"n_max_used": used, "doublings": int(round(math.log2(used / start)))}


def _matrix_counts(bound, result):
    return {"dim": int(result.shape[0]), "bytes": int(result.nbytes)}


# "<module>.<function>" -> counts taken from the bound arguments and result
TARGETS = {
    "cli.main": None,
    "oracle.diagonalize": _first_arg_dim,
    "oracle.certify_truncation": _certify_counts,
    "oracle.find_crossings": lambda bound, result: {"crossings": len(result)},
    "hilbert.build_hamiltonian": _matrix_counts,
    "far.far_hamiltonian": None,
    "wigner.wigner_grid": lambda bound, result: {"points": int(result.values.size)},
    "wigner.wigner_numeric": None,
    "wigner.displacement_op": None,
    "algebra.run_all_checks": lambda bound, result: {"identities": len(result)},
    "jc.lowest_closed_levels": None,
    "jc.ground_state_critical": None,
    "jc.reduced_density": None,
}

# functions whose first argument is a Hamiltonian builder: every call of the
# builder is one solve, whatever eigensolver the function uses
COUNT_BUILDER_CALLS = {"oracle.find_crossings"}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.errors: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, counts):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = {"id": next(tracer._ids), "name": name,
                    "parent": stack[-1] if stack else tracer._root,
                    "job": tracer.job_id, "thread": threading.get_ident(),
                    "counts": {}}
            if tracer._root is None:
                tracer._root = span["id"]
            solves = None
            if name in COUNT_BUILDER_CALLS and args:
                solves = [0]
                builder = args[0]

                def counted(*b_args, **b_kwargs):
                    solves[0] += 1
                    return builder(*b_args, **b_kwargs)

                args = (counted,) + args[1:]
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if solves is not None:
                span["counts"]["solves"] = solves[0]
            if counts is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"].update(counts(bound, result))
                except Exception as exc:  # a changed API must not stop the job
                    tracer.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Replace each target in every loaded susyjc namespace bound to it."""
        for target, counts in targets.items():
            module_name, fn_name = target.rsplit(".", 1)
            try:
                module = importlib.import_module(f"susyjc.{module_name}")
            except ModuleNotFoundError:
                self.absent.append(target)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.absent.append(target)
                continue
            traced = self.wrap(target, original, counts)
            for name, mod in list(sys.modules.items()):
                if (name == "susyjc" or name.startswith("susyjc.")) and \
                        getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, traced)

    def dump(self, path: str, exit_code: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job_id, "exit_code": exit_code,
                       "absent": self.absent, "errors": self.errors,
                       "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, job_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(job_id)
    import susyjc.cli
    tracer.install()
    exit_code = 1
    try:
        exit_code = susyjc.cli.main(cli_args)
    except SystemExit as exc:  # argparse exits for --help and usage errors
        exit_code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
