"""Golden outputs: each verb's stdout must stay byte-identical.

``tests/golden/<NAME>.json`` holds one configuration per topology;
``<NAME>.<verb>.out`` holds the stdout of ``tripatch <verb> --config
<NAME>.json`` (``basin`` with ``--samples 20``).  A change that moves any
number in any of these files changes behaviour and must say so.

Regenerate after an intended output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import pathlib

import pytest

from tripatch.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
NAMES = ("FULL", "EX6", "CHAIN", "CONVERGE", "DIVERGE", "EX7", "EX7N", "EX8", "EX2N")
VERBS = {
    "analyze": [],
    "sweep": [],
    "simulate": [],
    "basin": ["--samples", "20"],
}


def render(name: str, verb: str) -> str:
    """Stdout of one verb on one golden config, run in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([verb, "--config", str(GOLDEN / f"{name}.json"),
                     *VERBS[verb]])
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden(name, verb):
    expected = (GOLDEN / f"{name}.{verb}.out").read_bytes()
    assert render(name, verb).encode() == expected


if __name__ == "__main__":
    for name in NAMES:
        for verb in VERBS:
            (GOLDEN / f"{name}.{verb}.out").write_bytes(
                render(name, verb).encode())
