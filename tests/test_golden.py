"""Byte identity of CLI stdout against a recorded golden corpus.

``tests/golden/corpus.json`` holds the exact stdout and exit code of each
case in ``tests/golden/make_golden.py``.  Any change to a canonical
coefficient string, to term order or to JSON layout shows up here.
"""

import json
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from make_golden import run_case  # noqa: E402

CORPUS = json.loads((GOLDEN / "corpus.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[c["name"] for c in CORPUS])
def test_cli_stdout_is_byte_identical(case):
    code, out = run_case(case["argv"], case["stdin"])
    assert code == case["exit"]
    assert out == case["stdout"]
