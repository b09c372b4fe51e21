"""The results ledger: what every preset run produced, so "same results" is
checked by a tool.

For each run in ``RUNS`` the ledger holds every check's name, verdict and
detail, and for every array of the run's record and extras its shape, dtype,
SHA-256 and max |x|; a run that raises holds its error instead.  The header
names the NumPy version, the machine and the host's BLAS thread count (each
preset itself runs on one BLAS thread).

    PYTHONPATH=src python tests/ledger.py              # write tests/ledger.json
    PYTHONPATH=src python tests/ledger.py --check      # compare with it
    PYTHONPATH=src python tests/ledger.py --against REV

``--check`` prints every changed verdict, detail, shape, dtype and hash, and
every run or array added or removed, and exits 1 when there is any.  The
header also names OpenBLAS's core and NumPy's enabled CPU dispatch targets.
``--against REV`` does the same against the ledger that REV's own
``tests/ledger.py`` writes in a temporary ``git worktree`` of REV, removed
afterwards, so the working tree is compared with REV's code itself.  Check
details and hashes can move at rounding level between CPUs and NumPy builds,
so tier-1 (``tests/test_acceptance.py``) compares names, verdicts, shapes and
dtypes everywhere, and details only where every ``HOST_KEYS`` entry of the
header equals the host's.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from oscint.model import _openblas_thread_calls
from oscint.scenarios import SCENARIO_NAMES, run_scenario

LEDGER = Path(__file__).resolve().with_name("ledger.json")

# Every preset at its defaults, then the off-default runs changes keep
# re-checking.  fig6 fails its own check at seed 9 (forward Euler inflates
# the stored modes); the ledger records that.
RUNS = {name: (name, {}) for name in SCENARIO_NAMES}
RUNS |= {f"fig9 dt={dt:g}": ("fig9", {"dt": dt}) for dt in (0.05, 0.4)}
RUNS |= {"fig10 dt=0.5": ("fig10", {"dt": 0.5})}
RUNS |= {f"fig6 seed={seed}": ("fig6", {"seed": seed}) for seed in range(12)}

_ROWS = 4096


def arrays(result) -> dict[str, np.ndarray]:
    """Every ndarray of the result's record and extras, by dotted path;
    dataclasses by their fields, dicts by key, lists and tuples by index."""
    found = {}

    def walk(path, value):
        if isinstance(value, np.ndarray):
            found[path] = value
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                walk(f"{path}.{f.name}", getattr(value, f.name))
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(f"{path}.{key}", item)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{path}.{i}", item)

    walk("trajectory", result.trajectory)
    walk("extras", result.extras)
    return found


def checks(result) -> list[dict]:
    return [{"name": c.name,
             "verdict": "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL"),
             "detail": c.detail} for c in result.assertions]


def _digest(a: np.ndarray) -> str:
    """SHA-256 of ``a``'s C-order bytes, hashed a few thousand rows at a
    time so a broadcast view is never materialized whole."""
    h = hashlib.sha256()
    rows = a.reshape(1, -1) if a.ndim == 0 else a
    for start in range(0, max(len(rows), 1), _ROWS):
        h.update(np.ascontiguousarray(rows[start:start + _ROWS]).tobytes())
    return h.hexdigest()


def entry(result) -> dict:
    return {"checks": checks(result),
            "arrays": {path: {"shape": list(a.shape), "dtype": str(a.dtype),
                              "sha256": _digest(a),
                              "max_abs": float(np.abs(a).max()) if a.size else None}
                       for path, a in arrays(result).items()}}


def run(label: str) -> dict:
    name, overrides = RUNS[label]
    try:
        result = run_scenario(name, **overrides)
    except (ValueError, RuntimeError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return entry(result)


def _blas_core() -> str | None:
    """The CPU core name NumPy's bundled OpenBLAS runs its kernels for
    (such as "SkylakeX"), or None without one."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _cpu_dispatch() -> list[str]:
    """The CPU dispatch targets NumPy built and this host enables."""
    umath = np._core._multiarray_umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


# The header keys on which check details depend: tier-1 compares details
# only on a host where all of them equal the ledger's.
HOST_KEYS = ("numpy", "machine", "blas_core", "cpu_dispatch")


def header() -> dict:
    calls = _openblas_thread_calls()
    return {"numpy": np.__version__, "machine": platform.machine(),
            "blas_threads": calls[0]() if calls else None,
            "blas_core": _blas_core(), "cpu_dispatch": _cpu_dispatch()}


def _outcome(run_entry: dict) -> str:
    return run_entry.get("error") or "; ".join(
        f"{c['verdict']} {c['name']}" for c in run_entry["checks"])


def differences(old: dict, new: dict) -> list[str]:
    """One line per run, check or array field that differs."""
    lines = []
    for key in sorted(old["header"].keys() | new["header"].keys()):
        if old["header"].get(key) != new["header"].get(key):
            lines.append(f"header {key}: {old['header'].get(key)!r} -> "
                         f"{new['header'].get(key)!r}")
    before, after = old["runs"], new["runs"]
    for label in [*before, *(k for k in after if k not in before)]:
        if label not in after or label not in before:
            lines.append(f"{label}: {'removed' if label in before else 'added'}")
            continue
        was, now = before[label], after[label]
        if "error" in was or "error" in now:
            if was.get("error") != now.get("error"):
                lines.append(f"{label}: {_outcome(was)} -> {_outcome(now)}")
            continue
        if [c["name"] for c in was["checks"]] != [c["name"] for c in now["checks"]]:
            lines.append(f"{label}: checks {[c['name'] for c in was['checks']]} -> "
                         f"{[c['name'] for c in now['checks']]}")
        else:
            for c0, c1 in zip(was["checks"], now["checks"]):
                for key in ("verdict", "detail"):
                    if c0[key] != c1[key]:
                        lines.append(f"{label}: {c0['name']} {key}: "
                                     f"{c0[key]!r} -> {c1[key]!r}")
        for path in [*was["arrays"], *(p for p in now["arrays"] if p not in was["arrays"])]:
            a0, a1 = was["arrays"].get(path), now["arrays"].get(path)
            if a0 is None or a1 is None:
                lines.append(f"{label}: {path} {'removed' if a1 is None else 'added'}")
                continue
            for key in ("shape", "dtype", "sha256", "max_abs"):
                if a0[key] != a1[key]:
                    lines.append(f"{label}: {path} {key}: {a0[key]} -> {a1[key]}")
    return lines


def ledger_at(rev: str) -> dict:
    """The ledger REV's ``tests/ledger.py`` writes when run on REV's tree."""
    root = LEDGER.parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(tree), rev],
                       cwd=root, check=True)
        try:
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            subprocess.run([sys.executable, str(tree / "tests" / "ledger.py")],
                           cwd=tree, env=env, check=True)
            return json.loads((tree / "tests" / LEDGER.name).read_text())
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=root, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help=f"compare with {LEDGER.name} instead of writing it")
    mode.add_argument("--against", metavar="REV",
                      help="compare with the ledger of git revision REV")
    ns = parser.parse_args(argv)
    old = ledger_at(ns.against) if ns.against else None
    new = {"header": header(), "runs": {label: run(label) for label in RUNS}}
    if not (ns.check or ns.against):
        LEDGER.write_text(json.dumps(new, indent=1) + "\n")
        return 0
    lines = differences(old or json.loads(LEDGER.read_text()), new)
    print("\n".join(lines) if lines else
          f"no change against {ns.against or LEDGER.name}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
