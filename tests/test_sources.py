"""Package source hygiene."""

import inspect
import re
import warnings
from pathlib import Path

import pytest

import sphfun
from sphfun import _kernels_py

PACKAGE = Path(sphfun.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    # invalid escapes such as "\i" in a non-raw docstring warn at compile
    # time (DeprecationWarning, SyntaxWarning from Python 3.12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_pole_rule_lives_in_complexmath():
    # one module decides when a Gamma argument is a pole
    users = {p.name for p in SOURCES
             if "POLE_TOL" in p.read_text(encoding="utf-8")}
    assert users == {"complexmath.py"}


def test_kernel_twins_share_an_interface_the_library_calls():
    # read from the .pyx source, so the check runs without Cython
    pyx = (PACKAGE / "_kernels.pyx").read_text(encoding="utf-8")
    compiled = set(re.findall(r"^def (?!_)(\w+)\(", pyx, re.MULTILINE))
    fallback = {name for name, fn in inspect.getmembers(
                    _kernels_py, inspect.isfunction)
                if fn.__module__ == _kernels_py.__name__
                and not name.startswith("_")}
    assert compiled == fallback
    library = "".join(p.read_text(encoding="utf-8") for p in SOURCES)
    uncalled = {name for name in fallback
                if not re.search(rf"\bkernels\.{name}\(", library)}
    assert not uncalled
