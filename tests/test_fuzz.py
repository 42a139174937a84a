"""Fuzz of the command line's input boundaries: mutated job files and
mutated checkpoints, run through ``cli.main`` in-process.

Every run must end with exit code 0 (success), 2 (bad command line), 3
(bad jobspec) or 4 (bad checkpoint), raise no numpy ``RuntimeWarning``, and
report a refusal as at most one short line on stderr.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrcsched import desk_fixture, dumps_checkpoint, init_params, serialize_jobspec
from hrcsched.cli import main

from conftest import TINY_TEXT
from test_board import FLOAT_TEXT

FUZZ = settings(derandomize=True, deadline=None, database=None)

# tokens at the parsers' edges: signs, numbers past 2**53 and past a float,
# a non-ASCII digit, float spellings, the task kinds, the reserved task id
# and the directive names
TOKENS = [
    "0", "-1", "+3", "-0", "1" * 17, "9" * 400, "٣", "1e308", "-1e308", "inf", "nan",
    "0x1f", "noop", "H", "R", "E", "board", "agents", "task", "tensor", "HRCNET", "",
]
DESK_TEXT = serialize_jobspec(desk_fixture())
COMMAND_ARGS = {
    "solve": ["--simulations", "2"],
    "baseline": ["--trajectories", "2"],
    "oracle": ["--node-budget", "200"],
}


@st.composite
def mutated(draw, text: str, focus: list[int]) -> bytes:
    """``text`` with one or two token or line mutations, then a changed
    byte one time in four. A mutation picks a line from ``focus`` about half
    the time, any line else. Most replace a token after a line's first, its
    keyword, and a third of those put a small number there."""
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 2))):
        at = min(draw(st.sampled_from(focus) | st.integers(0, len(lines) - 1)), len(lines) - 1)
        tokens = lines[at]
        kind = draw(st.sampled_from(["replace", "replace", "replace", "drop", "copy line", "drop line"]))
        if kind == "replace":
            new = draw(st.integers(-1, 20).map(str) | st.sampled_from(TOKENS) | st.text(max_size=8))
            tokens[draw(st.integers(min(1, len(tokens) - 1), len(tokens) - 1))] = new
        elif kind == "drop" and len(tokens) > 1:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif kind == "copy line":
            lines.insert(at, list(tokens))
        elif len(lines) > 1:
            del lines[at]
    data = bytearray("\n".join(" ".join(tokens) for tokens in lines).encode() + b"\n")
    if draw(st.integers(0, 3)) == 0:
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


def run_cleanly(argv: list[str]) -> None:
    """Run ``cli.main`` and check the run's exit code, warnings and stderr."""
    err = io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and all(len(line) < 300 for line in lines), lines


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@settings(FUZZ, max_examples=150)
@given(data=st.data(), literal=st.booleans())
def test_mutated_job_files_fail_cleanly(command, data, literal, workdir):
    base = data.draw(st.sampled_from([TINY_TEXT, FLOAT_TEXT, DESK_TEXT]))
    job = workdir / f"{command}.job"
    # the board line, the agents line and the first task
    job.write_bytes(data.draw(mutated(base, focus=[0, 1, 2])))
    argv = [command, "--jobspec", str(job), "--out", str(workdir / command), *COMMAND_ARGS[command]]
    run_cleanly(argv + ["--literal-gravity"] * literal)


@pytest.fixture(scope="module")
def desk_checkpoint():
    desk = desk_fixture()
    return dumps_checkpoint(init_params(desk.height, desk.width))


@settings(FUZZ, max_examples=150)
@given(data=st.data())
def test_mutated_desk_checkpoints_fail_cleanly(data, desk_checkpoint, workdir):
    # the format line and each tensor's header
    headers = [i for i, line in enumerate(desk_checkpoint.splitlines()) if line[:1].isalpha()]
    job, ckpt = workdir / "desk.job", workdir / "desk.ckpt"
    job.write_text(DESK_TEXT, encoding="utf-8")
    ckpt.write_bytes(data.draw(mutated(desk_checkpoint, focus=headers)))
    argv = ["solve", "--jobspec", str(job), "--out", str(workdir / "ckpt"), "--checkpoint", str(ckpt)]
    run_cleanly(argv + COMMAND_ARGS["solve"])
