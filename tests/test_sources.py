"""Package source hygiene."""

import warnings
from pathlib import Path

import pytest

import sphfun

SOURCES = sorted(Path(sphfun.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    # invalid escapes such as "\i" in a non-raw docstring warn at compile
    # time (DeprecationWarning, SyntaxWarning from Python 3.12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
