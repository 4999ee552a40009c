from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def fixtures_dir(repo_root: Path) -> Path:
    path = repo_root / "fixtures"
    if not path.is_dir():
        pytest.skip("bundled fixtures directory is missing")
    return path


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The C kernels, compiled into a temporary directory and bound through
    ctypes; nothing is built into ``src/``, so the rest of the suite keeps
    running whichever path the package selects on import."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler to build the compiled kernels")
    from webcred._kernels import LIBRARY
    from webcred._kernels.compiled import load

    lib = tmp_path_factory.mktemp("kernels") / LIBRARY.name
    subprocess.run(
        [cc, "-O3", "-ffp-contract=off", "-shared", "-fPIC",
         str(LIBRARY.with_name("kernels.c")), "-o", str(lib)],
        check=True,
    )
    return load(lib)
