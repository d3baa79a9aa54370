"""Every README command writes the same report under every BLAS kernel.

numpy's OpenBLAS, when built with DYNAMIC_ARCH, picks its kernel from the
CPU, and OPENBLAS_CORETYPE picks another one for one process.  The test
starts one child per kernel the CPU can run, among SkylakeX (AVX512F),
Haswell (AVX2) and Prescott (SSE3); each child runs the ten README commands
in-process through cli.run and prints the sha256 of each report.  The
digests must agree across the kernels.  Where numpy links another BLAS, or
the host is not x86-64, no kernel can be switched and the test says so as a
skip.

Run as a script, this file is the child: `python tests/test_blas_kernels.py`
prints one `name digest` line per command.
"""

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

_FIXTURES = Path(__file__).parent / "fixtures" / "frozen_constants.json"

# the command lines of the README's "Command line" and "Frozen constants"
_COMMANDS = {
    "gauss-verify": "gauss-verify --q-max 60",
    "multiplier-error": "multiplier-error --n-min 8 --n-max 12 --grid 16384 --s-max 6",
    "multiplier-error-injected": "multiplier-error --n-min 8 --n-max 12 --inject-q 5 "
                                 "--inject-beta 0.9",
    "weak-type-interval": "weak-type-sweep --family interval --size 1024 --n-max 16",
    "weak-type-primes": "weak-type-sweep --family primes --size 4096 --n-max 16",
    "lp-sweep": "lp-sweep --p-list 1.25,1.5,2 --seeds 8 --support 256 --n-max 12",
    "residue-equidist": "residue-equidist --q 4 --s 2 --beta 0.9 --n-max 10",
    "ergodic-demo": "ergodic-demo --system rotation --alpha golden --set 0,0.5 "
                    "--n-max 20 --seeds 100",
    "orlicz-norm": "orlicz-norm --input steps.csv",
    "weak-type-fixtures": f"weak-type-sweep --family interval --size 1024 --n-max 20 "
                          f"--fixtures {_FIXTURES}",
}

# OPENBLAS_CORETYPE name -> the numpy CPU feature its kernel needs
_KERNELS = {"SkylakeX": "AVX512F", "Haswell": "AVX2", "Prescott": "SSE3"}


def _report_digests() -> dict[str, str]:
    from primeavg import cli

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the orlicz-norm report names its input as given
        Path("steps.csv").write_text("3,0.25\n1,0.5\n")
        out = {}
        for name, line in _COMMANDS.items():
            code = cli.run(line.split() + ["--out", "report"])
            assert code == 0, (name, code)
            out[name] = hashlib.sha256(Path("report").read_bytes()).hexdigest()
    return out


def _switchable_kernels() -> list[str]:
    """The kernels OPENBLAS_CORETYPE can select here; pytest.skip, with its
    reason, when it can select none."""
    import numpy as np
    import pytest
    from numpy._core._multiarray_umath import __cpu_features__

    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"the kernels are x86-64 ones; the host is {platform.machine()}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration") or ""
    if "DYNAMIC_ARCH" not in config:
        pytest.skip(f"numpy's BLAS ({blas.get('name')}) cannot switch kernels: "
                    f"no DYNAMIC_ARCH in {config!r}")
    kernels = [k for k, feature in _KERNELS.items() if __cpu_features__.get(feature)]
    if len(kernels) < 2:
        pytest.skip(f"this CPU runs only the kernels {kernels}; nothing to compare")
    return kernels


def test_reports_do_not_depend_on_the_blas_kernel():
    kernels = _switchable_kernels()
    src = str(Path(__import__("primeavg").__file__).parents[1])
    digests = {}
    for kernel in kernels:
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                               text=True, timeout=120)
        assert child.returncode == 0, (kernel, child.stderr)
        digests[kernel] = dict(line.split() for line in child.stdout.splitlines())
    first = digests[kernels[0]]
    assert set(first) == set(_COMMANDS)
    moved = {name: {k: d[name][:12] for k, d in digests.items()} for name in _COMMANDS
             if len({d[name] for d in digests.values()}) > 1}
    assert not moved, moved


if __name__ == "__main__":
    for name, digest in _report_digests().items():
        print(name, digest)
