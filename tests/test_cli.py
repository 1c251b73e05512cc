import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "susyjc" / "schemas"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    cmd = [sys.executable, "-m", "susyjc", *args]
    return subprocess.run(cmd, capture_output=True, env=env)


def _validate(payload):
    schema = json.loads((SCHEMA_DIR / "output.schema.json").read_text())
    jsonschema.validate(payload, schema)


def test_help_runs():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert b"spectrum" in cp.stdout and b"wigner" in cp.stdout


# sha256 of each --help text at 80 columns (Python 3.11's argparse): a flag
# that drifts between cli.FLAGS, cli.RUNS and the parser changes its bytes
HELP_SHA256 = {
    "": "e8e34eadad5e0d6ae1ac06cb90ef5220d9a72011df2290c63ef1c167de7f6c13",
    "spectrum": "094cb9db724f4d9e09c287a24a9a7a52b40f7e2f60d15601f8b1a8b39f50aa46",
    "crossings": "c48570a6b554aecd2b22008b5c1bfae57bc65182f19faf0d95ac7e7fccf3eee5",
    "wigner": "1a99950b12100b8edf03f89c10d691e5302bfcc2f018e2a5dca75d89c631fca2",
    "verify": "59ab0acd6624b6a43a090781a3a1eed905149afadbb785fd6e493e8f67ff6d8c",
    "far": "348254d75569ba1bc8418acc305e5f8ec2e4277a1187b2bb1fa7cad0c527c1a5",
}


def test_help_text_is_pinned(monkeypatch, capsys):
    from susyjc import cli
    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_SHA256.items():
        code = cli.main([command, "--help"] if command else ["--help"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


# the 60 names the package exports
PACKAGE_EXPORTS = {
    "CrossingRecord", "DegenerateAngle", "DegenerateCouplings",
    "DimensionMismatch", "DressedLabel", "EigenSolution", "FarParams",
    "HilbertConfig", "IdentityReport", "InvalidLabel", "InvalidN",
    "JCApproximation", "ModelParams", "NoConvergence", "ParityChains", "SpectrumShape",
    "SqueezedFrame", "SupportExceeded", "SusyJCError", "TruncationTooSmall",
    "WignerGrid", "anticommutator", "approx_spectrum", "certify_cutoff",
    "certify_truncation", "commutator", "constraint_check",
    "coupling_for", "crossing_pair", "dressed_energy", "dressed_state",
    "effective_hamiltonian", "eigenvalues", "exchange_op",
    "excitation_number", "far_chains", "far_from_alphas",
    "far_spectrum_shape", "find_crossings", "frame_unitary",
    "ground_state_critical", "interior_mask", "jc_approximation",
    "jc_to_ajc_rotation", "lab_frame_offset", "laguerre_pair",
    "lowest_closed_levels", "numeric_evaluator",
    "parity_chains", "parity_op", "quadrature_weights", "rabi_frequency",
    "reduced_density", "run_all_checks", "spin_op", "squeeze_parameter",
    "su11_generator", "von_neumann_entropy", "wigner_closed_jc",
    "wigner_grid",
}


def test_package_exports_are_in_each_module_all():
    # every name of the package's lazy table is in its module's __all__ and
    # is that module's object, the table holds the package's 60 names,
    # and every module's __all__ names only what the module defines
    import importlib
    import susyjc
    exported = []
    for module_name, names in susyjc._EXPORTS.items():
        module = importlib.import_module(f"susyjc.{module_name}")
        for name in names:
            assert name in module.__all__, (module_name, name)
            assert getattr(susyjc, name) is getattr(module, name), name
        exported += names
    assert len(PACKAGE_EXPORTS) == 60
    assert sorted(exported) == sorted(susyjc.__all__) == sorted(PACKAGE_EXPORTS)
    package = Path(susyjc.__file__)
    for path in package.parent.glob("[!_]*.py"):
        module = importlib.import_module(f"susyjc.{path.stem}")
        for name in module.__all__:
            assert hasattr(module, name), (path.stem, name)


def test_each_error_type_is_raised_and_has_a_cli_prefix():
    # a guard deleted without its class leaves a public name nothing
    # raises, and an exit code with no prefix would end cli.main in a
    # KeyError traceback
    import ast
    import susyjc
    from susyjc import cli, errors
    raised = set()
    for path in Path(susyjc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    for name in errors.__all__:
        assert name == "SusyJCError" or name in raised, name
        assert getattr(errors, name).exit_code in cli.ERROR_PREFIX, name


def test_import_boundaries():
    # SciPy is imported by oracle.py alone, and no module that commands
    # reaches through `from .x import ...` imports anisotropic, which keeps
    # the squeezed frame off every CLI path
    import ast
    import susyjc
    imports = {}
    for path in Path(susyjc.__file__).parent.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                names |= {"." + alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names.add("." * node.level + node.module)
        imports[path.stem] = names
    assert sorted(module for module, names in imports.items()
                  if any(n.split(".")[0] == "scipy" for n in names)) == ["oracle"]
    reached, todo = set(), ["commands"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo += [n[1:].split(".")[0] for n in imports[module]
                     if n.startswith(".")]
    assert {"commands", "oracle", "jc", "far"} <= reached
    assert "anisotropic" not in reached


def test_spectrum_scalar_point_csv():
    cp = run_cli("spectrum", "--model", "jc", "--lambda", "0.5",
                 "--levels", "6", "--n-max", "40")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.decode().splitlines()
    assert lines[0] == "sweep_value,level_index,energy,label_branch,label_N,closed_form_energy,residual"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0.5"
    assert first[3] == "minus" and first[4] == "0"
    # closed form and oracle coincide for the jc model
    assert abs(float(first[6])) < 1e-9
    assert abs(float(first[2]) + 0.5) < 1e-12  # singlet at -omega0/2, in units of omega0
    assert b"\r" not in cp.stdout
    assert cp.stdout.endswith(b"\n")


def test_spectrum_units_scaling():
    absolute = run_cli("spectrum", "--model", "jc", "--lambda", "0.0",
                       "--omega0", "2.0", "--levels", "1", "--n-max", "20",
                       "--units", "absolute")
    scaled = run_cli("spectrum", "--model", "jc", "--lambda", "0.0",
                     "--omega0", "2.0", "--levels", "1", "--n-max", "20",
                     "--units", "omega0")
    e_abs = float(absolute.stdout.decode().splitlines()[1].split(",")[2])
    e_sc = float(scaled.stdout.decode().splitlines()[1].split(",")[2])
    assert abs(e_abs + 1.0) < 1e-12
    assert abs(e_sc + 0.5) < 1e-12


def test_spectrum_ar_has_empty_label_fields():
    cp = run_cli("spectrum", "--model", "ar", "--lambda", "0.3", "--mu", "0.1",
                 "--levels", "3", "--n-max", "50")
    assert cp.returncode == 0, cp.stderr
    row = cp.stdout.decode().splitlines()[1].split(",")
    assert row[3] == "" and row[4] == "" and row[5] == "" and row[6] == ""


def test_spectrum_json_validates():
    cp = run_cli("spectrum", "--model", "jc", "--lambda", "0:1:4",
                 "--levels", "3", "--n-max", "30", "--format", "json")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout.decode())
    assert payload["kind"] == "spectrum"
    assert len(payload["rows"]) == 12
    _validate(payload)


def test_spectrum_far_skips_degenerate_sweep_point():
    cp = run_cli("spectrum", "--model", "far", "--alpha0", "0.01",
                 "--alphaQ", "1.0", "--alphaR", "1:2:2", "--levels", "3",
                 "--n-max", "60")
    assert cp.returncode == 0
    assert b"skipping sweep point" in cp.stderr
    lines = cp.stdout.decode().splitlines()
    assert len(lines) == 4  # header + the surviving alphaR=2 point
    assert all(line.split(",")[0] == "2.0" for line in lines[1:])


def test_spectrum_far_refuses_a_sweep_whose_every_point_is_skipped(capsys):
    # alphaR = -1 and 1 both sit on the isotropic line: no row to show
    from susyjc import cli
    assert cli.main(["spectrum", "--model", "far", "--alphaR=-1:1:2",
                     "--n-max", "20"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("skipping sweep point") == 2
    assert err.splitlines()[-1].startswith("susyjc: parameter error: ")


def test_spectrum_far_refuses_a_bare_degenerate_value(capsys):
    # a sweep skips the isotropic point; a bare value has nothing else to show
    from susyjc import cli
    assert cli.main(["spectrum", "--model", "far", "--alphaR", "1",
                     "--auto"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("susyjc: parameter error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,line", [
    ("--alphaR 0.5:1.5:3 --n-max 40", 1.0),  # a grid point on the line
    ("--alphaR 0.5:1.5:8 --n-max 40", 1.0),  # the line between grid points
    ("--alphaQ=-1 --alphaR 0.5:2:5 --n-max 8", 1.0),
    ("--alphaQ 0.5 --alphaR=-1:-0.2:4 --auto", -0.5),
])
def test_crossings_far_refuse_a_sweep_across_the_isotropic_line(
        argv, line, monkeypatch, capsys):
    # far_from_alphas refuses |alphaR| == |alphaQ|, so a search across the
    # line would bracket a crossing at a point it refuses; the run is
    # refused before any solve
    from susyjc import cli, commands

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the refusal")
    monkeypatch.setattr(commands, "find_crossings", no_solve)
    monkeypatch.setattr(commands, "certify_truncation", no_solve)
    assert cli.main(["crossings", "--model", "far", *argv.split()]) == 2
    assert capsys.readouterr() == (
        "", "susyjc: parameter error: the --alphaR sweep crosses the "
            f"isotropic line |alphaR| == |alphaQ| at alphaR = {line!r}; "
            "sweep each side of it\n")


def test_spectrum_ar_at_equal_couplings_is_the_rabi_model(capsys):
    # lam == mu is the quantum Rabi model a^dag a + sigma_z/2
    # + lam sigma_x (a + a^dag), regular in the lab frame
    import numpy as np
    from susyjc import cli
    assert cli.main(["spectrum", "--model", "ar", "--lambda", "0.3", "--mu",
                     "0.3", "--auto", "--levels", "6",
                     "--units", "absolute"]) == 0
    got = [float(line.split(",")[2])
           for line in capsys.readouterr().out.splitlines()[1:]]
    n = 120
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    h = (np.kron(np.eye(2), a.T @ a) + 0.5 * np.kron(np.diag([1.0, -1.0]), np.eye(n))
         + 0.3 * np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), a + a.T))
    assert len(got) == 6
    assert np.abs(np.array(got) - np.linalg.eigvalsh(h)[:6]).max() < 1e-12


def test_crossings_ar_sweep_through_equal_couplings(capsys):
    # the grid holds lam = mu = 0.2 exactly
    from susyjc import cli
    assert cli.main(["crossings", "--model", "ar", "--lambda", "0.05:0.6:12",
                     "--mu", "0.2", "--auto", "--format", "json"]) == 0
    _validate(json.loads(capsys.readouterr().out))


def test_crossings_stop_when_xtol_is_below_the_float_spacing():
    # the refinement ends on two adjacent floats instead of looping on them
    cmd = [sys.executable, "-m", "susyjc", "crossings", "--model", "ar", "--mu",
           "0.2", "--lambda", "0.5:1.7:4", "--n-max", "8", "--xtol", "1e-300"]
    cp = subprocess.run(cmd, capture_output=True, timeout=30)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.decode().splitlines()[1] == ",,,,1.0198039027511006,"


def test_crossings_jc():
    cp = run_cli("crossings", "--model", "jc", "--lambda", "0.5:1.5:40",
                 "--n-max", "60", "--format", "json")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout.decode())
    _validate(payload)
    rows = payload["rows"]
    assert len(rows) == 1
    assert rows[0]["branch"] == "minus"
    assert rows[0]["M"] == 0 and rows[0]["N"] == 1
    assert abs(rows[0]["lambda_closed"] - 1.0) < 1e-12
    assert abs(rows[0]["lambda_numeric"] - 1.0) < 1e-6
    assert rows[0]["residual"] < 1e-6


@pytest.mark.parametrize("model, flag", [("jc", "--lambda"), ("ajc", "--mu")])
def test_a_negative_crossing_sweep_mirrors_the_positive_one(model, flag,
                                                            capsysbinary):
    # the ground state hops from sector N-1 to N as |coupling| grows, so
    # [-b, -a] meets the hops of [a, b] in reverse order, each from N to
    # N-1 at the negated closed form
    from susyjc import cli

    def rows(sweep):
        assert cli.main(["crossings", "--model", model, f"{flag}={sweep}",
                         "--n-max", "40", "--format", "json"]) == 0
        return json.loads(capsysbinary.readouterr().out.decode())["rows"]

    positive, negative = rows("0.5:3:30"), rows("-3:-0.5:30")
    assert len(positive) == len(negative) == 2
    for pos, neg in zip(reversed(positive), negative):
        assert pos["residual"] < 1e-6 and neg["residual"] < 1e-6
        assert (neg["branch"], neg["M"], neg["N"]) == (pos["branch"], pos["N"],
                                                       pos["M"])
        assert neg["lambda_closed"] == -pos["lambda_closed"]
        assert abs(neg["lambda_numeric"] + pos["lambda_numeric"]) < 1e-6


def test_crossings_return_an_exact_tie(capsysbinary):
    # on resonance both sector energies at lambda = 1 round to the same
    # float, and a bisection midpoint lands on it: that midpoint is returned
    from susyjc import cli
    assert cli.main(["crossings", "--model", "jc", "--lambda", "0.45:1.45:16",
                     "--n-max", "40", "--format", "json"]) == 0
    rows = json.loads(capsysbinary.readouterr().out.decode())["rows"]
    assert len(rows) == 1
    assert rows[0]["lambda_numeric"] == 1.0
    assert (rows[0]["M"], rows[0]["N"]) == (0, 1)


def _scipy_loaded_after(*jobs) -> bool:
    """Whether a fresh interpreter has loaded any SciPy module after
    importing susyjc, printing --help and running each job (exit 0)."""
    code = (
        "import contextlib, io, os, sys\n"
        "import susyjc\n"
        "from susyjc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['--help']) == 0\n"
        f"for extra in {list(jobs)!r}:\n"
        "    assert cli.main(extra + ['--output', os.devnull]) == 0, extra\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert cp.returncode == 0, cp.stderr
    loaded = cp.stdout.decode().split()
    assert loaded in (["True"], ["False"]), cp.stdout  # every job ran
    return loaded == ["True"]


def test_light_jobs_load_no_scipy():
    # scipy loads only where numpy's LAPACK has no dstev for the chains
    # that do not split into excitation-number sectors (ar/far). It does
    # not load on import, help, verify, either Wigner source, any jc/ajc
    # spectrum, any crossing search (those solve lowest levels only), or
    # any ar/far run below, however many rows its chains hold
    assert not _scipy_loaded_after(
        ["verify", "--n-max", "8"],
        ["wigner", "--label", "minus:1", "--lambda", "1", "--points", "16"],
        ["wigner", "--label", "minus:1", "--lambda", "1", "--points", "16",
         "--source", "numeric"],
        ["spectrum", "--model", "jc", "--lambda", "0.7", "--auto"],
        ["spectrum", "--model", "jc", "--lambda", "0.7", "--n-max", "40"],
        ["spectrum", "--model", "jc", "--lambda", "0:2:9", "--n-max", "40"],
        ["crossings", "--model", "jc", "--lambda", "0.5:1.5:20"],
        ["crossings", "--model", "ajc", "--mu", "0.5:1.5:20", "--n-max", "40"],
        ["spectrum", "--model", "ar", "--lambda", "0.7", "--mu", "0.2",
         "--n-max", "40"],
        ["far", "--alpha0", "0.01", "--alphaQ", "1.0", "--alphaR", "0.5",
         "--n-max", "60"],
        ["spectrum", "--model", "far", "--alphaR", "4.1:5.5:2", "--auto"],
        ["spectrum", "--model", "ar", "--omega", "0.12", "--lambda", "0.82:1.42:2",
         "--mu", "0.3", "--auto"],
        ["far", "--alpha0", "0.01", "--alphaQ", "1.0", "--alphaR", "2.7",
         "--format", "json"],
        ["spectrum", "--model", "ar", "--lambda", "0.7", "--mu", "0.2",
         "--n-max", "200"],
        ["crossings", "--model", "ar", "--lambda", "0.3:1.5:20", "--mu", "0.2",
         "--n-max", "40"],
        ["crossings", "--model", "ar", "--lambda", "0.3:1.5:20", "--mu", "0.2",
         "--n-max", "512"])
    # the benchmark's ar and far searches, each alone in its process
    assert not _scipy_loaded_after(
        ["crossings", "--model", "ar", "--omega", "0.1", "--lambda", "0.045:0.49:40",
         "--mu", "0.02", "--auto"])
    assert not _scipy_loaded_after(
        ["crossings", "--model", "far", "--alphaR", "1.2:4.95:12", "--n-max", "220"])
    assert not _scipy_loaded_after(["spectrum", "--model", "far", "--alphaR", "1:5:101",
                                    "--n-max", "512"])
    assert not _scipy_loaded_after(["spectrum", "--model", "ar", "--lambda", "0.5",
                                    "--mu", "0.2", "--n-max", "1024"])


def test_the_argv_surface_loads_no_numpy(tmp_path):
    # import, --help and every refusal of argparse or the config merge run
    # on the standard library; --help loads four susyjc modules and no
    # scipy, and the first accepted job loads numpy
    config = tmp_path / "unknown.json"
    config.write_text('{"bogus": 1}')
    code = (
        "import contextlib, io, os, sys\n"
        "import susyjc\n"
        "from susyjc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['--help'], ['spectrum', '--help']):\n"
        "        assert main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'susyjc')\n"
        "assert loaded == ['susyjc', 'susyjc.cli', 'susyjc.constants',\n"
        "                  'susyjc.errors'], loaded\n"
        "assert 'scipy' not in sys.modules\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "    for argv in (['verify', '--n-max', '4096'],\n"
        "                 ['wigner', '--points', '5000'],\n"
        "                 ['spectrum', '--model', 'jc', '--n-max', '40', '--auto'],\n"
        f"                 ['verify', '--config', {str(config)!r}]):\n"
        "        assert main(argv) == 2, argv\n"
        "assert err.getvalue().count('susyjc: error: ') == 4, err.getvalue()\n"
        "print('numpy' in sys.modules)\n"
        "assert main(['verify', '--n-max', '8', '--output', os.devnull]) == 0\n"
        "print('numpy' in sys.modules)\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.decode().split() == ["False", "True"]


def test_jc_solves_load_no_numpy_ma():
    # jc/ajc chains split into 2x2 sectors, whose single states a boolean
    # mask finds; np.setdiff1d would load numpy.ma through np.unique
    code = (
        "import os, sys\n"
        "from susyjc import cli\n"
        "for argv in (['spectrum', '--model', 'jc', '--lambda', '0.7', '--auto'],\n"
        "             ['spectrum', '--model', 'jc', '--lambda', '0:2:9', '--n-max', '40'],\n"
        "             ['crossings', '--model', 'jc', '--lambda', '0.5:1.5:20']):\n"
        "    assert cli.main(argv + ['--output', os.devnull]) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.decode().split() == ["False"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_job(process_entry: bool, **env_extra) -> tuple[int, bool]:
    """A fresh interpreter, with no BLAS thread variable set but env_extra,
    runs one verify job through cli.main() reading sys.argv (as python -m
    susyjc does) or through cli.main(argv) (as a library caller does). It
    returns the process's thread count and whether os.environ is unchanged."""
    argv = ["verify", "--n-max", "16", "--output", os.devnull]
    call = (f"sys.argv = ['susyjc', *{argv!r}]\nstatus = cli.main()\n"
            if process_entry else f"status = cli.main({argv!r})\n")
    code = ("import os, sys\n"
            "from susyjc import cli\n"
            "before = dict(os.environ)\n"
            + call +
            "assert status == 0\n"
            "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)\n")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True,
                        env={**env, **env_extra})
    assert cp.returncode == 0, cp.stderr
    threads, unchanged = cp.stdout.decode().split()
    return int(threads), unchanged == "True"


linux_only = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="counts threads in /proc/self/task")


@linux_only
def test_a_process_entry_runs_blas_on_one_thread():
    assert _blas_job(True) == (1, False)


@linux_only
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
def test_a_process_entry_keeps_the_users_blas_thread_count():
    threads, unchanged = _blas_job(True, OPENBLAS_NUM_THREADS="2")
    assert threads >= 2 and unchanged


def test_a_library_call_leaves_the_environment_alone():
    assert _blas_job(False)[1]


def test_crossings_auto_certifies_at_the_larger_magnitude_end():
    # a decreasing-magnitude sweep is most demanding at its first point; at
    # -0.3 the certification stops at n_max 64. How many rows it lists is
    # rounding noise in the gap past |lambda| = 1.01, so it is not pinned
    base = ("crossings", "--model", "ar", "--omega", "0.1", "--lambda=-3:-0.3:20",
            "--mu", "0.02", "--format", "json")
    auto = run_cli(*base, "--auto")
    pinned = run_cli(*base, "--n-max", "1024")
    assert auto.returncode == pinned.returncode == 0, auto.stderr
    auto, pinned = json.loads(auto.stdout), json.loads(pinned.stdout)
    assert auto["n_max"] == 1024
    assert auto["rows"] == pinned["rows"]


def test_a_negative_sweep_is_joined_to_its_flag(capsys):
    # argparse reads a separate -0.5:0.5:5 as an option
    from susyjc import cli
    argv = ["spectrum", "--model", "jc", "--levels", "2", "--n-max", "20"]
    assert cli.main(argv + ["--lambda=-0.5:0.5:5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 2
    assert cli.main(argv + ["--lambda", "-0.5:0.5:5"]) == 2
    assert "--lambda: expected one argument" in capsys.readouterr().err


def test_main_returns_every_exit_code(capsys):
    # --help and argparse's refusals return their codes, as main's own
    # refusals do, instead of raising SystemExit
    from susyjc import cli
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: susyjc")
    assert cli.main(["spectrum", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_each_model_input_is_parsed_once(monkeypatch, capsysbinary):
    # the sweep flag and ar's scalar --mu, before any solve, not again at
    # each grid point, bisection step or crossing record
    from susyjc import cli, commands
    parse, texts = commands._parse_sweep, []
    monkeypatch.setattr(commands, "_parse_sweep",
                        lambda text: texts.append(text) or parse(text))
    assert cli.main(["crossings", "--model", "ar", "--lambda", "0.3:1.5:20",
                     "--mu", "0.2", "--n-max", "40"]) == 0
    assert texts == ["0.3:1.5:20", "0.2"]
    assert capsysbinary.readouterr().out.startswith(b"branch,M,N,")


@pytest.mark.parametrize("argv", [
    "crossings --model jc --lambda 0.5:3:40 --auto --format json",
    "crossings --model ar --omega 0.1 --lambda 0.05:0.5:40 --mu 0.02 --auto"],
    ids=["jc_40", "ar_40"])
def test_crossings_refine_in_few_solves(argv, monkeypatch, capsysbinary):
    # past the 40 grid points, each crossing takes at most 10 builder calls,
    # its two labels included; bisection to 1e-9 took 24-26
    from susyjc import cli, commands
    search, calls, found = commands.find_crossings, [], []

    def spy(builder, *args, **kwargs):
        records = search(lambda x: calls.append(x) or builder(x), *args, **kwargs)
        found.extend(records)
        return records

    monkeypatch.setattr(commands, "find_crossings", spy)
    assert cli.main(argv.split()) == 0
    assert len(found) >= 2
    assert len(calls) - 40 <= 10 * len(found)


def test_schemas_and_parser_name_the_cli_model_facts():
    from susyjc import cli
    from susyjc.jc import LABEL_MODELS
    out = json.loads((SCHEMA_DIR / "output.schema.json").read_text())["$defs"]
    config = json.loads((SCHEMA_DIR / "config.schema.json").read_text())
    assert cli.MODELS == tuple(cli.SWEEP_FLAG)
    assert config["properties"]["model"]["enum"] == list(cli.MODELS)
    for kind in ("spectrum", "crossings"):
        assert out[kind]["properties"]["model"]["enum"] == list(cli.MODELS)
    assert (sorted(out["spectrum"]["properties"]["sweep_parameter"]["enum"])
            == sorted(set(cli.SWEEP_FLAG.values())))
    assert out["wigner"]["properties"]["model"]["enum"] == list(LABEL_MODELS)
    _, actions = cli._build_parser()
    assert {name: tuple(flags["model"].choices)
            for name, flags in actions.items() if "model" in flags} == {
        "spectrum": cli.MODELS, "crossings": cli.MODELS, "wigner": LABEL_MODELS}


def test_crossings_need_a_range():
    cp = run_cli("crossings", "--model", "jc", "--lambda", "1.0", "--n-max", "40")
    assert cp.returncode == 2
    assert b"min:max:points" in cp.stderr


def test_wigner_csv_and_json():
    args = ("wigner", "--label", "minus:0", "--window", "2", "--points", "17")
    cp = run_cli(*args)
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.decode().splitlines()
    assert lines[0] == "re_alpha,im_alpha,w"
    assert len(lines) == 1 + 17 * 17
    center = [l for l in lines[1:] if l.startswith("0.0,0.0,")]
    assert len(center) == 1
    assert abs(float(center[0].split(",")[2]) - 2.0 / math.pi) < 1e-12
    cp = run_cli(*args, "--format", "json")
    payload = json.loads(cp.stdout.decode())
    _validate(payload)
    assert abs(payload["normalization_integral"] - 1.0) < 1e-2


def test_wigner_numeric_source_agrees_with_closed():
    base = ("wigner", "--label", "plus:1", "--lambda", "0.8", "--window", "1.5",
            "--points", "17", "--format", "json")
    closed = json.loads(run_cli(*base, "--source", "closed").stdout.decode())
    numeric = json.loads(run_cli(*base, "--source", "numeric").stdout.decode())
    _validate(numeric)
    for rc, rn in zip(closed["rows"], numeric["rows"]):
        assert abs(rc["w"] - rn["w"]) < 1e-8


def test_verify_subcommand():
    cp = run_cli("verify", "--n-max", "24")
    assert cp.returncode == 0, cp.stderr
    text = cp.stdout.decode()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["identity", "projector", "truncation_sensitive",
                       "residual", "passed"]
    assert len(rows) == 35
    assert all(row[4] == "true" for row in rows[1:])
    # the structurally exact identities report a residual of literally zero
    exact = [row for row in rows[1:] if row[3] == "0.0"]
    assert len(exact) >= 19
    cp = run_cli("verify", "--n-max", "24", "--format", "json")
    payload = json.loads(cp.stdout.decode())
    _validate(payload)
    assert payload["all_pass"] is True


def test_verify_tolerance_scales_with_the_entries(capsysbinary):
    # at n_max = 256 the su(1,1) residuals exceed 1e-12, but the entries
    # they are rounded from grow like n_max^2, and relative to those they pass
    from susyjc import cli
    assert cli.main(["verify", "--n-max", "256", "--format", "json"]) == 0
    rows = json.loads(capsysbinary.readouterr().out.decode())["rows"]
    assert all(row["passed"] for row in rows)
    assert max(row["residual"] for row in rows) > 1e-12


# sha256 of stdout at pinned inputs, keyed by case id (the verify ids are
# n_max-format). The verify digests are those of the dense-matrix
# implementation that the banded checks replaced (residuals must keep every
# bit); the others were printed by the row-dict emitter that the column
# tables replaced
WIGNER = "wigner --label minus:1 --lambda 1.0 --window 2 --points 21"
AR = "spectrum --model ar --lambda 0.3 --mu 0.1 --levels 3 --n-max 20"
CROSSINGS = "crossings --model jc --lambda 0.5:1.5:16 --n-max 40"
AR_CROSSINGS = "crossings --model ar --lambda 0.3:1.5:20 --mu 0.2 --n-max 40"
FAR_CROSSINGS = "crossings --model far --alpha0 1 --alphaR 1.05:4:10 --n-max 40"
FAR = "far --alpha0 0.01 --alphaQ 1.0 --alphaR 0.5 --n-max 60"
BYTE_PINS = {
    "16-csv": ("verify --n-max 16 --format csv",
               "e245b52a4b82360c9e636872bb09cda96fd5b1a504fa8290d50756a8da43f7c7"),
    "16-json": ("verify --n-max 16 --format json",
                "f828f55145a43c6469bc08b6b30c908ece041fa8d0edde3185b7962f999af69f"),
    "64-csv": ("verify --n-max 64 --format csv",
               "4cb691733a6614b531cdb6b0bed72b4ef2834a2b86fd0a0484f9f0c029c54f71"),
    "64-json": ("verify --n-max 64 --format json",
                "9b6758d8900a68b69384ad1c216effdf70b1ed24bdaeca3f916e60d7336b19ea"),
    "256-csv": ("verify --n-max 256 --format csv",
                "7b86103bcfe8373547f09c435ed7ad1c257c0a162056e9176abe2ab3dbbf9725"),
    "256-json": ("verify --n-max 256 --format json",
                 "c3016079b9d46f64afbc410b1c568c6ed40dfdfdcd7fb7633c41565ce9d62180"),
    "wigner-closed-csv": (WIGNER + " --format csv",
                          "ca029e8ed6564d49768d83dfd07afd8d900a4e5d6d1d55c8157e0234d3c7f270"),
    "wigner-closed-json": (WIGNER + " --format json",
                           "21b90a2b212a930d6fe5da19f10bccbdcf5aa1c2fdbc0b5c6756139423e5f1cf"),
    # empty label and closed-form cells; the eigenvalues are bitwise those of
    # SciPy's tridiagonal solver
    "spectrum-ar-csv": (AR + " --format csv",
                        "8c5e21eb653e307d2513077c1b38e95eed4c337b5aead7aad5d38d2a9a5d7016"),
    "spectrum-ar-json": (AR + " --format json",
                         "58b1e955d15fccb961cad0f7f315e4104f9fd0d807059fca53148cfbe28a5e02"),
    "crossings-jc-csv": (CROSSINGS + " --format csv",
                         "8537b6758e104a70fa027d1616a39dd060f2e9e86ba992c15ec43d36ded4b3ee"),
    "crossings-jc-json": (CROSSINGS + " --format json",
                          "7adeb6a79f4dd1d3fc6a7f53eb7878ce470c52fa4cbf612c5557c3313a0d8cf4"),
    # ar/far crossings, whose lowest levels come from oracle._lowest and
    # whose sign changes are refined by false position; recorded at that code
    "crossings-ar-csv": (AR_CROSSINGS + " --format csv",
                         "42ef3490dc569a7fdf89f1fef15f1b4b5b29ad395a5e5be69260105aff306bd9"),
    "crossings-ar-json": (AR_CROSSINGS + " --format json",
                          "0814cf4fa974b00836a4e3cd6121631e57eef07dc93c02ef2892ddc64b095590"),
    "crossings-far-csv": (FAR_CROSSINGS + " --format csv",
                          "24c8a92c5a146b0d1bafba58e9a2bf0e26816330a7ed5a26dc1f56a03f08a562"),
    "crossings-far-json": (FAR_CROSSINGS + " --format json",
                           "e94b71e266c0639175ec204c47c09058ef0e1841bee30348de0e981546edaa1e"),
    "far-csv": (FAR + " --format csv",
                "2b1fb0aa5add5a28b89ed82d93697edbc1802ea5dc45f85e745ce5d58618099f"),
    "far-json": (FAR + " --format json",
                 "7f20e80994bbf3f28e28354304ef421faa92247a64aab5241f5eba8ca86b8fcf"),
}


@pytest.mark.parametrize("case", sorted(BYTE_PINS))
def test_verify_bytes_are_pinned(case, capsysbinary):
    # every case, not only the verify subcommand, prints its pinned bytes
    from susyjc import cli
    args, digest = BYTE_PINS[case]
    assert cli.main(args.split()) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest


def test_verify_at_the_cutoff_cap_stays_small(capsysbinary):
    # the identities run on banded operators; one dense 4098-square complex
    # matrix alone would take 268 MB
    import tracemalloc
    from susyjc import cli
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--n-max", "2048", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(capsysbinary.readouterr().out.decode())["rows"]) == 34
    assert peak < 64 * 2**20


def test_verify_fails_with_absurd_tolerance():
    cp = run_cli("verify", "--n-max", "16", "--tol", "1e-30")
    assert cp.returncode == 4
    assert b",false" in cp.stdout


def test_far_report():
    cp = run_cli("far", "--alpha0", "0.01", "--alphaQ", "1.0", "--alphaR", "0.5",
                 "--format", "json", "--n-max", "80")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout.decode())
    _validate(payload)
    eff = payload["effective"]
    assert abs(eff["omega"] - 0.625) < 1e-15
    assert abs(eff["omega0"] - 0.375) < 1e-15
    assert abs(eff["lambda"] - 0.01) < 1e-15
    assert abs(eff["mu"] - 0.005) < 1e-15
    assert payload["constraints"]["detuning_residual"] == 0.0
    assert payload["shape"]["has_unique_ground"] is True


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "jc", "lambda": "0.5", "levels": 5,
                               "n_max": 30}))
    base = run_cli("spectrum", "--config", str(cfg))
    assert base.returncode == 0, base.stderr
    assert len(base.stdout.decode().splitlines()) == 6
    overridden = run_cli("spectrum", "--config", str(cfg), "--levels", "2")
    assert len(overridden.stdout.decode().splitlines()) == 3


def test_config_values_pass_through_their_flag_types(tmp_path, capsys):
    from susyjc import cli
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "jc", "lambda": 0.5, "levels": 3.0,
                               "omega": "1", "n_max": 20, "format": "json"}))
    assert cli.main(["spectrum", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["levels"] == 3 and payload["n_max"] == 20
    cfg.write_text(json.dumps({"model": "jc", "lambda": 0.5, "levels": 2.5}))
    assert cli.main(["spectrum", "--config", str(cfg)]) == 2
    assert "'levels' must be an integer" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "jc", "lambda": "0.5", "bogus": 1}))
    cp = run_cli("spectrum", "--config", str(cfg))
    assert cp.returncode == 2
    assert b"unknown config key" in cp.stderr
    # verify has no cutoff search, so auto is not one of its keys
    cfg.write_text(json.dumps({"auto": True}))
    cp = run_cli("verify", "--config", str(cfg))
    assert cp.returncode == 2
    assert b"unknown config key 'auto' for subcommand 'verify'" in cp.stderr


def test_bounds_match_the_config_schema():
    from susyjc import cli
    schema = json.loads((SCHEMA_DIR / "config.schema.json").read_text())
    props = schema["properties"]
    bounded = {key for key, prop in props.items()
               if {"minimum", "exclusiveMinimum", "maximum"} & prop.keys()}
    assert bounded == set(cli.BOUNDS)
    for key, (low, low_excluded, high) in cli.BOUNDS.items():
        lower, other = ("exclusiveMinimum", "minimum") if low_excluded else \
            ("minimum", "exclusiveMinimum")
        assert props[key].get(lower) == low, key
        assert other not in props[key], key
        assert props[key].get("maximum") == high, key


# config objects that the schema and the CLI must accept or refuse alike;
# numeric strings are left out, since the CLI reads them as its flags do
SCHEMA_CASES = [
    ("spectrum", {"model": "jc", "lambda": 0.5, "n_max": 10}),
    ("spectrum", {"model": "jc", "lam": 0.5, "n_max": 10}),
    ("spectrum", {"model": "jc", "lambda": 0.5, "n_max": 2048, "levels": 1}),
    ("spectrum", {"model": "jc", "lambda": 0.5, "n_max": 4096}),
    ("spectrum", {"model": "jc", "lambda": 0.5, "n_max": 1}),
    ("spectrum", {"model": "jc", "lambda": 0.5, "n_max": 10, "levels": 0}),
    ("spectrum", {"model": "jc", "lambda": 0.5, "conv_tol": 0}),
    ("wigner", {"label": "minus:0", "points": 16}),
    ("wigner", {"label": "minus:0", "points": 15}),
    ("wigner", {"label": "minus:0", "points": 5000}),
    ("wigner", {"label": "minus:2048", "lambda": 1.0, "points": 16}),
    ("wigner", {"label": "plus:5000", "lambda": 1.0, "points": 16}),
    ("wigner", {"label": "plus:0", "lambda": 1.0, "points": 16}),
    ("wigner", {"label": "plus:1_0", "lambda": 1.0, "points": 16}),
    ("wigner", {"label": "plus: 3", "lambda": 1.0, "points": 16}),
    ("verify", {"n_max": 2048, "tol": 1e-9}),
    ("verify", {"n_max": 2048, "tol": 0}),
]


@pytest.mark.parametrize("command,config", SCHEMA_CASES,
                         ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_schema_and_cli_agree(command, config, tmp_path, capsys):
    from susyjc import cli
    schema = json.loads((SCHEMA_DIR / "config.schema.json").read_text())
    valid = jsonschema.Draft202012Validator(schema).is_valid(config)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code = cli.main([command, "--config", str(path),
                     "--output", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == (0 if valid else 2)


# inputs refused before any work: non-finite numbers (flags, bare sweep
# values, config values), numbers outside their flag's bounds, and
# allocations sized from the input; then parameters whose chain entries,
# far coefficients, closed levels or Wigner values overflow, jc/ajc levels
# with no lowest closed level (omega <= 0), a ground-state hop that no
# positive coupling makes (omega < 0), a result
# that overflows in --units omega0 (refused by the emitter, in either format
# and before an --output file is created), and an output file that cannot
# be written
REFUSED = [
    ["spectrum", "--model", "jc", "--lambda", "0.5", "--omega", "nan",
     "--n-max", "20"],
    ["spectrum", "--model", "jc", "--lambda", "inf", "--n-max", "20"],
    ["spectrum", "--model", "ar", "--lambda", "0.3", "--mu=-inf",
     "--n-max", "20"],
    ["spectrum", "--model", "jc", "--lambda", "0.5", "--conv-tol", "nan"],
    ["far", "--alpha0", "nan", "--alphaQ", "1.0", "--alphaR", "0.5"],
    ["wigner", "--label", "minus:1", "--lambda", "nan"],
    ["crossings", "--model", "jc", "--lambda", "0.5:1.5:4", "--omega", "inf"],
    ["spectrum", "--config", "{cfg}"],
    ["wigner", "--label", "minus:0", "--points", "100000"],
    ["wigner", "--label", "minus:0", "--source", "numeric", "--window", "1e3"],
    ["wigner", "--label", "minus:0", "--source", "numeric", "--window", "1e200"],
    ["wigner", "--label", "minus:3000", "--source", "numeric", "--window", "1"],
    ["spectrum", "--model", "jc", "--lambda", "0.5", "--n-max", "4096"],
    ["verify", "--n-max", "100000"],
    ["spectrum", "--model", "jc", "--lambda", "0:1:100000000"],
    ["crossings", "--model", "jc", "--lambda", "0:1:1002", "--n-max", "20"],
    ["spectrum", "--config", "{cfg_levels}"],
    ["spectrum", "--config", "{cfg_omega}"],
    ["spectrum", "--config", "{cfg_bool}"],
    ["spectrum", "--config", "{cfg_model}"],
    ["spectrum", "--config", "{cfg_sweep}"],
    ["spectrum", "--config", "{cfg_n_max}"],
    ["spectrum", "--config", "{cfg_conv_tol}"],
    ["verify", "--config", "{cfg_verify_auto}"],
    ["spectrum", "--model", "jc", "--lambda", "0.5", "--levels", "0"],
    ["wigner", "--label", "minus:1", "--points", "15"],
    ["wigner", "--label", "minus:1", "--window", "0"],
    ["verify", "--tol=-1"],
    ["crossings", "--model", "jc", "--lambda", "0.5:1.5:4", "--xtol", "0"],
    ["spectrum", "--model", "ar", "--omega", "1", "--lambda", "1e308",
     "--mu", "0.1", "--n-max", "8"],
    ["far", "--alpha0", "1e308", "--alphaQ", "1", "--alphaR", "2", "--n-max", "8"],
    ["far", "--alpha0", "1", "--alphaQ", "1e308", "--alphaR", "2", "--n-max", "8"],
    ["spectrum", "--model", "far", "--alpha0", "1e308", "--alphaR", "2",
     "--n-max", "8"],
    ["crossings", "--model", "far", "--alpha0", "1e308", "--alphaR", "0.5:2:5",
     "--n-max", "8"],
    ["spectrum", "--model", "jc", "--omega", "1e-200", "--lambda", "1",
     "--n-max", "8"],
    ["spectrum", "--model", "jc", "--lambda", "1e154", "--n-max", "8"],
    ["spectrum", "--model", "ajc", "--mu", "1", "--omega", "-1", "--n-max", "20",
     "--levels", "4"],
    ["crossings", "--model", "jc", "--omega=-0.5", "--omega0=-1",
     "--lambda", "0.05:2:30", "--n-max", "20", "--units", "absolute"],
    ["wigner", "--label", "minus:1", "--lambda", "1e308"],
    ["spectrum", "--model", "ar", "--lambda", "1", "--mu", "0.3", "--omega0",
     "1e-320", "--n-max", "8", "--format", "json"],
    ["spectrum", "--model", "ar", "--lambda", "1", "--mu", "0.3", "--omega0",
     "1e-320", "--n-max", "8", "--format", "csv"],
    ["spectrum", "--model", "jc", "--lambda", "1", "--omega0", "1e-320"],
    ["spectrum", "--model", "jc", "--lambda", "1", "--omega0", "1e-320",
     "--format", "json"],
    ["spectrum", "--model", "jc", "--lambda", "1", "--omega0", "1e-320",
     "--output", "{out_file}"],
    ["wigner", "--label", "plus:100000000", "--lambda", "1", "--points", "16"],
    ["verify", "--n-max", "4", "--output", "{missing_dir}"],
    ["verify", "--n-max", "4", "--output", "{tmp_dir}"],
]

# config files whose values their flags would not accept, or that lie
# outside the flags' bounds
BAD_CONFIGS = {
    "cfg_levels": {"model": "jc", "lambda": 0.5, "levels": [3]},
    "cfg_omega": {"model": "jc", "lambda": 0.5, "omega": "x"},
    "cfg_bool": {"model": "jc", "lambda": 0.5, "n_max": True},
    "cfg_model": {"model": "rabi", "lambda": 0.5},
    "cfg_sweep": {"model": "jc", "lambda": [0, 1, 3]},
    "cfg_n_max": {"model": "jc", "lambda": 0.5, "n_max": 1},
    "cfg_conv_tol": {"model": "jc", "lambda": 0.5, "conv_tol": 0},
    "cfg_verify_auto": {"auto": True},  # verify has no cutoff search
}


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run_cli("spectrum", "--model", "jc").returncode == 2  # no coupling
    assert run_cli("spectrum", "--model", "jc", "--lambda", "0:1:1").returncode == 2
    assert run_cli("spectrum", "--model", "jc", "--lambda", "1:0:5").returncode == 2
    assert run_cli("spectrum", "--model", "jc", "--lambda", "0.1",
                   "--n-max", "20", "--auto").returncode == 2
    cp = run_cli("verify", "--auto")  # verify takes no --auto at all
    assert cp.returncode == 2
    assert b"unrecognized arguments: --auto" in cp.stderr, cp.stderr
    cp = run_cli("spectrum", "--model", "ajc", "--n-max", "20")
    assert cp.returncode == 2  # ajc sweeps --mu
    assert cp.stderr == b"susyjc: error: --mu is required for --model ajc\n"
    cp = run_cli("wigner", "--label", "seven")
    assert cp.returncode == 2
    cp = run_cli("wigner", "--label", "minus:5", "--n-max", "3",
                 "--source", "numeric")
    assert cp.returncode == 2  # level does not fit the requested cutoff
    from susyjc import cli
    cfg = tmp_path / "run.json"
    cfg.write_text('{"model": "jc", "lambda": 0.5, "omega0": NaN}')
    out_file = tmp_path / "out.csv"
    paths = {"{cfg}": str(cfg), "{tmp_dir}": str(tmp_path),
             "{missing_dir}": str(tmp_path / "missing" / "x.csv"),
             "{out_file}": str(out_file)}
    for name, content in BAD_CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(content))
        paths["{" + name + "}"] = str(path)
    for argv in REFUSED:
        argv = [paths.get(a, a) for a in argv]
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("susyjc: "), argv
        assert err.count("\n") == 1, err
        if "far" in argv and "1e308" in argv:
            # an overflowing far coefficient is named in the message
            assert "alpha0, alphaQ or alphaR" in err, err
        if "1e-320" in argv:
            # the value is named as a Python float, not a numpy repr
            assert err.startswith("susyjc: error: a result is inf in the "
                                  "requested units;"), err
    assert not out_file.exists()


# config files named by REFUSAL_LINES, written into the test's directory
REFUSAL_CONFIGS = {"auto.json": '{"auto": "yes"}', "bad.json": "{bad",
                   "list.json": "[1, 2]", "mu.json": '{"mu": 0.3}'}

# refusals and the one stderr line each prints; {dir} is the config directory
REFUSAL_LINES = [
    ("spectrum --model jc --lambda abc",
     "expected a number or min:max:points, got 'abc'"),
    ("spectrum --model jc --lambda 0:1",
     "sweep must be min:max:points, got '0:1'"),
    ("spectrum --model jc --lambda a:b:3", "could not parse sweep 'a:b:3'"),
    ("spectrum --model jc --lambda 0.5 --config {dir}/auto.json",
     "config key 'auto' must be true or false, got 'yes'"),
    ("spectrum --model jc --lambda 0.5 --config {dir}/missing.json",
     "cannot read config file: [Errno 2] No such file or directory: "
     "'{dir}/missing.json'"),
    ("spectrum --model jc --lambda 0.5 --config {dir}/bad.json",
     "config file is not valid JSON: Expecting property name enclosed in "
     "double quotes: line 1 column 2 (char 1)"),
    ("spectrum --model jc --lambda 0.5 --config {dir}/list.json",
     "config file must hold a JSON object"),
    ("spectrum --lambda 0.5", "--model is required for spectrum"),
    ("wigner", "--label is required for wigner"),
    ("far --alpha0 1 --alphaQ 1", "--alphaR is required for far"),
    ("spectrum --model ar --lambda 0.5 --mu 0:1:3",
     "--mu must be a scalar for --model ar"),
    ("wigner --label plus:x", "--label N must be an integer, got 'x'"),
    ("spectrum --model jc --omega0=-1 --lambda 0.5 --levels 3 --n-max 20",
     "--units omega0 needs a positive --omega0, got -1.0; use --units absolute"),
    ("crossings --model jc --omega0=-0.5 --lambda 0.05:3:30 --n-max 40",
     "--units omega0 needs a positive --omega0, got -0.5; use --units absolute"),
    ("crossings --lambda 0.5:1.5:4", "--model is required for crossings"),
    ("spectrum --model jc", "--lambda is required for --model jc"),
    ("crossings --model ajc --n-max 8", "--mu is required for --model ajc"),
    ("spectrum --model far --n-max 8", "--alphaR is required for --model far"),
    ("far --alphaQ 1 --alphaR 2", "--alpha0 is required for far"),
    # a flag or config key that the run does not read
    ("spectrum --model jc --lambda 0.5 --mu 0.3 --n-max 8",
     "--mu is not read by spectrum --model jc --n-max N"),
    ("spectrum --model jc --lambda 0.5 --config {dir}/mu.json",
     "--mu is not read by spectrum --model jc"),
    ("spectrum --model ajc --mu 0.5 --lambda 0.3",
     "--lambda is not read by spectrum --model ajc"),
    ("spectrum --model jc --lambda 0.5 --alphaQ 2 --n-max 8",
     "--alphaQ is not read by spectrum --model jc --n-max N"),
    ("spectrum --model far --alphaR 2 --omega 0.5 --n-max 8",
     "--omega is not read by spectrum --model far --n-max N"),
    ("crossings --model far --alphaR 1.5:3:4 --units absolute",
     "--units is not read by crossings --model far"),
    ("spectrum --model jc --lambda 0.5 --n-max 8 --conv-tol 1e-9",
     "--conv-tol is not read by spectrum --model jc --n-max N"),
    ("crossings --model jc --lambda 0.5:1.5:4 --n-max 8 --levels 3",
     "--levels is not read by crossings --model jc --n-max N"),
    ("crossings --model jc --lambda 0.5:1.5:4 --n-max 8 --conv-tol 1e-9",
     "--conv-tol is not read by crossings --model jc --n-max N"),
    ("far --alpha0 0.01 --alphaQ 1 --alphaR 2 --n-max 60 --levels 3",
     "--levels is not read by far --n-max N"),
    ("wigner --label minus:1 --lambda 0.5 --mu 0.2",
     "--mu is not read by wigner --model jc --source closed"),
    ("wigner --model ajc --label minus:1 --lambda 0.5",
     "--lambda is not read by wigner --model ajc --source closed"),
    ("wigner --label minus:1 --n-max 60",
     "--n-max is not read by wigner --model jc --source closed"),
    ("wigner --label minus:1 --auto",
     "--auto is not read by wigner --model jc --source closed"),
]


@pytest.mark.parametrize("argv,line", REFUSAL_LINES,
                         ids=[argv for argv, _ in REFUSAL_LINES])
def test_refusals_print_one_line(argv, line, tmp_path, capsys):
    from susyjc import cli
    for name, text in REFUSAL_CONFIGS.items():
        (tmp_path / name).write_text(text)
    argv = argv.replace("{dir}", str(tmp_path)).split()
    assert cli.main(argv) == 2
    assert capsys.readouterr() == (
        "", "susyjc: error: " + line.replace("{dir}", str(tmp_path)) + "\n")


def test_subnormal_scale_windows_are_refused(capsys):
    # below 1e-150 the window's square underflows, and this numeric grid
    # took 7.7 s at 1e-308 against 0.39 s at 1e-150
    from susyjc import cli
    argv = ("wigner --source numeric --label minus:1 --lambda 0.5 --points 16 "
            "--n-max 100 --window").split()
    assert cli.main([*argv, "1e-308"]) == 2
    assert capsys.readouterr() == (
        "", "susyjc: error: --window must be at least 1e-150, got 1e-308\n")
    assert cli.main([*argv, "1e-150"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 1 + 16 * 16


# a value each flag takes, as argv text; a config file holds the same text,
# which passes through the flag's type (--auto is a switch, true in a config)
FLAG_VALUES = {"omega": "0.9", "omega0": "1.1", "lambda": "0.5", "mu": "0.2",
               "alpha0": "0.01", "alphaQ": "1", "alphaR": "2", "levels": "3",
               "conv_tol": "1e-9", "xtol": "1e-9", "units": "absolute",
               "n_max": "8", "label": "minus:1", "window": "2",
               "points": "16", "tol": "1e-9", "shape_tol": "1e-8"}


def test_each_run_reads_its_flags_and_refuses_the_rest(tmp_path, monkeypatch,
                                                       capsys):
    # every run of cli.RUNS, given each flag of its subcommand's parser as a
    # flag and as a config key: a flag outside the run's entry is refused
    # with one line naming the flag and the run, one inside it is merged
    from susyjc import cli, commands
    merged_runs = []
    monkeypatch.setattr(commands, "run",
                        lambda command, merged: merged_runs.append(merged) or 0)
    _, actions = cli._build_parser()
    cfg = tmp_path / "run.json"
    refused = 0
    for run, reads in cli.RUNS.items():
        command = run.split()[0]
        base = run.replace("--n-max N", "--n-max 8").split()
        base += [word for key, default in reads.items()
                 if default is cli.REQUIRED and f"--{key} " not in run
                 for word in (f"--{key}", FLAG_VALUES[key])]
        assert cli.main(base) == 0, base
        assert capsys.readouterr() == ("", ""), base
        for key, action in actions[command].items():
            if key in ("help", "config", "format", "output") \
                    or f"--{key}" in base:
                continue  # read by every run, or set to select this one
            if key == "n_max" and run + " --n-max N" in cli.RUNS:
                continue  # --n-max selects the run's pinned twin
            flag = action.option_strings[0]
            value = True if key == "auto" else FLAG_VALUES[key]
            cfg.write_text(json.dumps({key: value}))
            if key not in reads:
                pinned_auto = key == "auto" and "--n-max" in run
                refused += not pinned_auto
                line = ("--n-max and --auto are mutually exclusive"
                        if pinned_auto else f"{flag} is not read by {run}")
            for argv in (base + [flag] + ([] if value is True else [value]),
                         base + ["--config", str(cfg)]):
                del merged_runs[:]
                code = cli.main(argv)
                out, err = capsys.readouterr()
                if key in reads:
                    assert (code, out, err) == (0, "", ""), argv
                    assert merged_runs[0][key] is not None, argv
                else:
                    assert (code, out, err) == (
                        2, "", f"susyjc: error: {line}\n"), argv
    # spectrum and crossings x 4 models x pinned or certified, wigner x 2
    # models x 2 sources, verify, and far pinned or certified; a refused
    # (run, flag) pair is counted once, leaving out --auto at a pinned cutoff
    assert len(cli.RUNS) == 23
    assert refused == 85


@pytest.mark.parametrize("argv,config,line", [
    ("spectrum --model jc --lambda 0.5 --theta 0.3", '{"theta": 0.3}',
     "unknown config key 'theta' for subcommand 'spectrum'"),
    ("crossings --model jc --lambda 0.5:1.5:4 --min-gap 1e-3",
     '{"min_gap": 1e-3}', "unknown config key 'min_gap' for subcommand "
                          "'crossings'"),
    ("wigner --label minus:1 --units absolute", '{"units": "absolute"}',
     "unknown config key 'units' for subcommand 'wigner'"),
    ("verify --units absolute", '{"units": "absolute"}',
     "unknown config key 'units' for subcommand 'verify'"),
    ("far --alpha0 0.01 --alphaQ 1 --alphaR 2 --units absolute",
     '{"units": "absolute"}', "unknown config key 'units' for subcommand 'far'"),
])
def test_flags_that_no_run_reads_are_not_parsed(argv, config, line, tmp_path):
    # no run of these subcommands reads the flag, so argparse refuses it,
    # and a config file's key is unknown
    flag = argv.split("--")[-1].split()[0]
    cp = run_cli(*argv.split())
    assert cp.returncode == 2 and cp.stdout == b""
    assert f"unrecognized arguments: --{flag}".encode() in cp.stderr
    cfg = tmp_path / "run.json"
    cfg.write_text(config)
    cp = run_cli(*argv.split()[:-2], "--config", str(cfg))
    assert (cp.returncode, cp.stdout) == (2, b"")
    assert cp.stderr == f"susyjc: error: {line}\n".encode()


def test_the_readme_examples_run():
    from susyjc import cli
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [line[len("$ susyjc "):].split()
                for line in readme.splitlines() if line.startswith("$ susyjc ")]
    assert len(examples) == 5
    for argv in examples:
        assert cli.main(argv + ["--output", os.devnull]) == 0, argv


@pytest.mark.parametrize("argv", [
    "spectrum --model jc --omega0=-1 --lambda 0.5 --levels 3 --n-max 20",
    "crossings --model jc --omega0=-0.5 --lambda 0.05:3:30 --n-max 40"])
def test_a_negative_omega0_is_reported_in_absolute_units(argv, capsys):
    # in units of a negative omega0 every value flipped its sign, residuals
    # included: those units are refused, and absolute ones are printed
    from susyjc import cli
    assert cli.main(argv.split()) == 2
    capsys.readouterr()
    assert cli.main(argv.split() + ["--units", "absolute"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows and all(float(row["residual"]) >= 0.0 for row in rows)


@pytest.mark.parametrize("argv", [
    "spectrum --model jc --omega0 0 --lambda 0.5 --units absolute --levels 4",
    "spectrum --model ajc --omega0 0 --mu 0.5 --units absolute --levels 4"])
def test_a_zero_closed_form_energy_prints_unsigned(argv):
    # at omega0 = 0 the N = 0 level sits at -omega0/2 = 0, printed as the
    # oracle prints it, not as -0.0
    cp = run_cli(*argv.split())
    assert cp.returncode == 0, cp.stderr
    rows = list(csv.DictReader(io.StringIO(cp.stdout.decode())))
    ground = [row for row in rows if row["label_N"] == "0"]
    assert len(ground) == 1
    assert ground[0]["closed_form_energy"] == ground[0]["energy"] == "0.0"
    assert "-0.0," not in cp.stdout.decode()


# extreme finite values, each put through every template below
EXTREMES = ("1e308", "-1e308", "1e-308", "5e-324", "0", "-1", "1e154", "1e-160")
EXTREME_TEMPLATES = [
    "spectrum --model jc --lambda={v} --n-max 8",
    "spectrum --model jc --omega={v} --lambda 1 --n-max 8",
    "spectrum --model jc --omega0={v} --lambda 1 --n-max 8 --units absolute",
    "spectrum --model jc --omega0={v} --lambda 1 --n-max 8",
    "spectrum --model ajc --omega={v} --mu 0.5 --n-max 8",
    "spectrum --model ar --lambda={v} --mu 0.1 --n-max 8",
    "spectrum --model ar --omega={v} --lambda 0.5 --mu 0.1 --n-max 8",
    "spectrum --model far --alpha0={v} --alphaR 2 --n-max 8",
    "crossings --model jc --omega={v} --lambda 0.05:2:5 --n-max 8",
    "crossings --model jc --omega0={v} --lambda 0.05:2:5 --n-max 8 "
    "--units absolute",
    "crossings --model jc --omega0={v} --lambda 0.05:2:5 --n-max 8",
    "crossings --model far --alphaQ={v} --alphaR 0.5:2:5 --n-max 8",
    "wigner --label minus:1 --lambda={v} --points 16",
    "wigner --label plus:1 --omega0={v} --lambda 0.5 --source numeric "
    "--n-max 8 --points 16",
    "verify --n-max 8 --tol={v}",
    "far --alpha0={v} --alphaQ 1 --alphaR 2 --n-max 8",
    "far --alpha0 0.1 --alphaQ={v} --alphaR 2 --n-max 8",
]


def test_closed_wigner_label_is_capped(capsys):
    # the closed form runs the Laguerre recurrence N times
    from susyjc import cli
    base = ["wigner", "--lambda", "1", "--points", "16", "--output", os.devnull]
    assert cli.main(base + ["--label", "plus:2048"]) == 0
    assert cli.main(base + ["--label", "plus:2049"]) == 2
    assert capsys.readouterr().err == ("susyjc: error: --label N must be at "
                                       "most 2048, got 2049\n")


def test_extreme_values_exit_with_a_documented_code(capsys):
    from susyjc import cli
    for template in EXTREME_TEMPLATES:
        for value in EXTREMES:
            argv = template.format(v=value).split()
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 2, 3, 4), argv
            if code == 0:
                cells = set(out.replace("\n", ",").split(","))
                assert not cells & {"nan", "inf", "-inf"}, argv
            elif code != 4:
                assert err.startswith("susyjc: ") and err.count("\n") == 1, argv


def test_closed_wigner_at_a_subnormal_coupling(capsysbinary):
    # on resonance the weights (Omega -/+ delta)/Omega are 1 at any coupling,
    # so a subnormal lambda gives the resonant W = 4 r^2 exp(-2 r^2)/pi of
    # minus:1, the same bytes as lambda = 1
    from susyjc import cli
    outs = []
    for lam in ("5e-324", "1"):
        assert cli.main(["wigner", "--label", "minus:1", "--lambda", lam,
                         "--points", "16"]) == 0
        outs.append(capsysbinary.readouterr().out)
    assert outs[0] == outs[1]
    rows = list(csv.DictReader(io.StringIO(outs[0].decode())))
    assert len(rows) == 16 * 16
    for r in rows:
        r2 = float(r["re_alpha"]) ** 2 + float(r["im_alpha"]) ** 2
        assert abs(float(r["w"]) - 4 * r2 * math.exp(-2 * r2) / math.pi) < 1e-15


def test_closed_levels_far_from_resonance_stay_small(capsys):
    import tracemalloc
    from susyjc import cli
    cli.main(["spectrum", "--model", "jc", "--lambda", "0.5", "--n-max", "8"])
    # the lowest minus level sits near N = (g/omega)^2/4 ~ 28000 here, and
    # --levels above the cutoff's 82 levels ranks only the levels printed
    for extra, rows in ((["--omega", "0.003"], 11),
                        (["--levels", "1000000000"], 82)):
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = cli.main(["spectrum", "--model", "jc", "--lambda", "1",
                             "--n-max", "40", *extra])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + rows
        assert peak < 8e6, peak


# exit code of each library error that does not end a run with 2, and the
# stderr prefix of each code
EXIT_CODES = {"NoConvergence": 3, "DimensionMismatch": 4,
              "SupportExceeded": 4}
PREFIXES = {2: "parameter error", 3: "convergence failure",
            4: "consistency failure"}

# runs that end in a library error, with their exact stderr
FAILED_RUNS = [
    ("far --alpha0 0.01 --alphaQ 1 --alphaR 0.5 --n-max 2", 3,
     "susyjc: convergence failure: the spectrum shape needs 3 certified "
     "levels and n_max 2 certifies 0\n"),
    ("wigner --label minus:0 --source numeric --n-max 10 --window 3 "
     "--points 17", 4,
     "susyjc: consistency failure: displaced state holds 1.319e-01 "
     "population at the cutoff; increase n_max\n"),
    # a photon density matrix of NaNs, refused before its eigenvalues
    ("wigner --source numeric --label minus:1 --lambda 1 --omega 1e308 "
     "--omega0=-1e308 --points 16", 2,
     "susyjc: parameter error: rho must be finite\n"),
]


def test_consistency_failures_exit_4(monkeypatch, capsys):
    from susyjc import cli, commands, errors
    for argv, code, message in FAILED_RUNS:
        assert cli.main(argv.split()) == code, argv
        assert capsys.readouterr() == ("", message), argv
    # every library error, raised from a subcommand, ends the run with its
    # class's exit code and one stderr line
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.SusyJCError)]
    assert sorted(c.__name__ for c in classes) == sorted(errors.__all__)
    for cls in classes:
        def handler(merged, cls=cls):
            raise cls("injected")
        monkeypatch.setattr(commands, "cmd_verify", handler)
        code = cli.main(["verify", "--n-max", "4"])
        assert code == cls.exit_code == EXIT_CODES.get(cls.__name__, 2), cls
        assert capsys.readouterr() == (
            "", f"susyjc: {PREFIXES[code]}: injected\n"), cls


def test_a_derived_cutoff_below_the_turning_point_is_refused_early():
    # at the grid's corner, |alpha| = sqrt(2), the displaced Fock-2000 state
    # reaches photon number (sqrt(2000) + sqrt(2))^2 = 2128.5, above the
    # derived cutoff 2041: refused before rho and the generator are built
    start = time.perf_counter()
    proc = run_cli(*("wigner --source numeric --label minus:2000 --lambda 1 "
                     "--window 1 --points 16").split())
    assert time.perf_counter() - start < 2.0
    assert (proc.returncode, proc.stdout) == (4, b"")
    assert proc.stderr == (
        b"susyjc: consistency failure: the displaced level reaches photon "
        b"number 2128.5 at the grid's corner, above the derived cutoff 2041; "
        b"set a larger --n-max\n")


def test_a_refused_cutoff_fails_the_numeric_check_when_pinned(capsys):
    from susyjc import cli
    argv = ("wigner --source numeric --label minus:100 --lambda 1 --window 2 "
            "--points 16").split()
    assert cli.main(argv) == 4
    assert capsys.readouterr() == ("", (
        "susyjc: consistency failure: the displaced level reaches photon "
        "number 164.6 at the grid's corner, above the derived cutoff 155; "
        "set a larger --n-max\n"))
    # the derived cutoff, pinned, runs the grid and fails at its corner
    assert cli.main([*argv, "--n-max", "155"]) == 4
    assert capsys.readouterr() == ("", (
        "susyjc: consistency failure: displaced state holds 5.367e-02 "
        "population at the cutoff; increase n_max\n"))


def test_output_file_matches_stdout(tmp_path):
    out = tmp_path / "spec.csv"
    args = ("spectrum", "--model", "jc", "--lambda", "0:2:9", "--levels", "4",
            "--n-max", "40")
    to_stdout = run_cli(*args)
    to_file = run_cli(*args, "--output", str(out))
    assert to_file.returncode == 0
    assert to_file.stdout == b""
    assert out.read_bytes() == to_stdout.stdout


def test_byte_identical_reruns():
    args = ("spectrum", "--model", "jc", "--lambda", "0:2:9", "--levels", "4",
            "--n-max", "40")
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flat(payload):
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _flat(value)
        elif isinstance(value, list):
            yield key, ";".join(_cell(v) for v in value)
        else:
            yield key, _cell(value)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "jc", "--lambda", "0:1:3", "--levels", "3",
     "--n-max", "20"],
    ["spectrum", "--model", "ar", "--lambda", "0.3", "--mu", "0.1",
     "--levels", "3", "--n-max", "20"],
    ["crossings", "--model", "jc", "--lambda", "0.5:1.5:8", "--n-max", "20"],
    ["wigner", "--label", "minus:1", "--lambda", "1.0", "--window", "2",
     "--points", "17"],
    ["verify", "--n-max", "16"],
    ["far", "--alpha0", "0.01", "--alphaQ", "1.0", "--alphaR", "0.5",
     "--n-max", "40"],
], ids=lambda argv: "-".join(argv[:3]))
def test_csv_and_json_hold_the_same_table(argv, capsysbinary):
    from susyjc import cli
    assert cli.main(argv + ["--format", "csv"]) == 0
    table = list(csv.reader(io.StringIO(capsysbinary.readouterr().out.decode())))
    assert cli.main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsysbinary.readouterr().out.decode())
    _validate(payload)
    if payload["kind"] == "far":
        # the CSV is the payload without its kind, flattened field by field
        del payload["kind"]
        fields = list(_flat(payload))
        assert table[0] == ["field", "value"]
        assert len(table) - 1 == len(fields) == len(dict(fields))
        assert dict(map(tuple, table[1:])) == dict(fields)
        return
    rows = payload["rows"]
    assert rows and all(sorted(row) == sorted(table[0]) for row in rows)
    assert table[1:] == [[_cell(row[c]) for c in table[0]] for row in rows]
