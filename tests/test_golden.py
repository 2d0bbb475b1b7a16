"""Golden outputs: each verb's stdout must stay byte-identical.

``tests/golden/<NAME>.json`` holds one configuration per topology;
``<NAME>.<verb>.out`` holds the stdout of ``tripatch <verb> --config
<NAME>.json`` (``basin`` with ``--samples 20``), ``verify.out`` that
of ``tripatch verify --samples 200``, and ``enumerate.out`` that of
``tripatch enumerate``.  A change that moves any number in
any of these files changes behaviour and must say so.

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
NAMES = ("FULL", "EX1", "EX2", "EX3", "HUB0", "EX6", "CHAIN", "CONVERGE", "DIVERGE", "EX7",
         "EX7N", "EX8", "EX2N")
VERBS = {
    "analyze": [],
    "sweep": [],
    "simulate": [],
    "basin": ["--samples", "20"],
}


def stdout_of(argv: list[str]) -> str:
    """Stdout of ``tripatch *argv``, run in-process; the exit code must be 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


def render(name: str, verb: str) -> str:
    """Stdout of one verb on one golden config."""
    return stdout_of([verb, "--config", str(GOLDEN / f"{name}.json"), *VERBS[verb]])


VERIFY = ["verify", "--samples", "200"]


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden(name, verb):
    expected = (GOLDEN / f"{name}.{verb}.out").read_bytes()
    assert render(name, verb).encode() == expected


def test_verify_matches_golden():
    assert stdout_of(VERIFY).encode() == (GOLDEN / "verify.out").read_bytes()


def test_enumerate_matches_golden():
    assert stdout_of(["enumerate"]).encode() == (GOLDEN / "enumerate.out").read_bytes()


if __name__ == "__main__":
    for name in NAMES:
        for verb in VERBS:
            (GOLDEN / f"{name}.{verb}.out").write_bytes(
                render(name, verb).encode())
    (GOLDEN / "verify.out").write_bytes(stdout_of(VERIFY).encode())
    (GOLDEN / "enumerate.out").write_bytes(stdout_of(["enumerate"]).encode())
