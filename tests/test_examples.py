"""Every example under ``examples/`` runs to completion.

The examples are the first code a reader copies, and nothing else
executes them: an API change that breaks one must fail here.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path))["main"]()
    assert capsys.readouterr().out.strip()


def test_examples_found():
    assert EXAMPLES  # an empty glob would skip the test above silently
