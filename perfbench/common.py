"""Paths, subprocess environment, summaries and provenance."""

import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for cache directories; inside the checkout, ignored
#: by git, removed when a run ends.
WORK_ROOT = ROOT / ".perfbench_work"

#: Environment variables that change what the program does; the
#: benchmark clears them so every pass runs the default configuration.
_PROGRAM_ENV = ("STEADY_PHASES", "VECTOR_PHASES", "REPLAY_INVOCATIONS")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program to measure)."""


def require_program():
    """Make ``repro`` importable from the checkout, or raise SetupError."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SetupError("no program at {}: expected src/repro/cli.py "
                         "in the checkout".format(SRC))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def clean_environ():
    """This process's environment without the program's switches."""
    return {key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key not in _PROGRAM_ENV}


def program_env(cache_dir):
    """Environment for one CLI process using ``cache_dir`` as its cache."""
    env = clean_environ()
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def cli_command(args):
    """argv that runs ``fusion-sim ARGS`` from the checkout's sources."""
    return [sys.executable, "-m", "repro.cli"] + list(args)


def make_work_dir(tag):
    """A fresh, empty directory under :data:`WORK_ROOT`."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = WORK_ROOT / "{}-{}".format(tag, os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


def remove_work_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def tree_bytes(path):
    """Bytes of every regular file under ``path``."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(path):
        for name in filenames:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except OSError:
                pass
    return total


def summarize(values):
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _git(*args):
    """``git ARGS`` in the checkout; ``None`` outside a git checkout (the
    ceiling keeps git from finding a repository above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT)] + list(args),
                              capture_output=True, text=True, timeout=20,
                              env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(run_order, summaries):
    """What produced these numbers: code, machine and the run sequence.

    A checkout without ``.git`` reports ``git_sha: null``; the
    ``code_fingerprint`` (hash of every ``repro`` source file) still
    identifies the code measured.
    """
    from repro.sim.engine import code_fingerprint
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "code_fingerprint": code_fingerprint(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "run_order": run_order,
        "summaries": summaries,
    }
