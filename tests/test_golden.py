"""The supported surface against a checked-in transcript of its outputs.

``tests/golden_transcript.json`` holds, for each command line of the
corpus in ``tests/corpus.py``, the exit code, stdout and first stderr
line, and the ``verify`` output once per format.  A change that alters an
output on purpose updates the file in the same commit and says so; the
tests never write it.  To print the transcript of the current tree::

    PYTHONPATH=src python tests/test_golden.py > tests/golden_transcript.json
"""

import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from corpus import command_lines, run_cli
from oracles import is_smooth_three_charts
from xiaofib.quartic import is_smooth, parse_ternary_form

GOLDEN = Path(__file__).with_name("golden_transcript.json")
WORKDIR = "<workdir>"  # stands for the temporary directory that holds the corpus's cover files


def transcript() -> dict:
    """Each corpus command's exit code, stdout and first stderr line, and ``verify`` per format."""
    commands = []
    # argparse wraps its usage line to the terminal width
    with mock.patch.dict(os.environ, COLUMNS="80"), tempfile.TemporaryDirectory() as workdir:
        for argv in command_lines(workdir):
            code, out, err = run_cli(argv)
            commands.append({
                "argv": [arg.replace(workdir, WORKDIR) for arg in argv],
                "exit": code,
                "stdout": out.replace(workdir, WORKDIR),
                "stderr": err.partition("\n")[0].replace(workdir, WORKDIR),
            })
    verify = {fmt: run_cli(["verify", "--format", fmt])[1] for fmt in ("markdown", "json")}
    return {"commands": commands, "verify": verify}


def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_corpus_command_reproduces_the_golden_transcript():
    got, want = transcript(), golden()
    assert [c["argv"] for c in got["commands"]] == [c["argv"] for c in want["commands"]]
    for got_command, want_command in zip(got["commands"], want["commands"]):
        assert got_command == want_command
    assert got["verify"] == want["verify"]


@pytest.mark.parametrize("fmt", ["markdown", "json"])
def test_verify_prints_the_golden_report_for_seeds_1_to_20(fmt):
    want = golden()["verify"][fmt]
    for seed in range(1, 21):
        assert run_cli(["verify", "--format", fmt, "--seed", str(seed)]) == (0, want, "")


# the form of every smoothness check the transcript holds an answer for
SMOOTH_CHECKS = [
    command["argv"][2] for command in golden()["commands"]
    if command["argv"][:2] == ["quartic", "--poly"] and command["argv"][3:] == ["--check", "smooth"]
    and command["exit"] == 0
]


@pytest.mark.parametrize("text", SMOOTH_CHECKS, ids=lambda text: text[:40])
def test_every_smoothness_answer_in_the_transcript_agrees_with_the_three_chart_oracle(text):
    """The transcript pins what ``is_smooth`` says; the oracle, which covers the plane by three charts, checks it."""
    form = parse_ternary_form(text)
    assert is_smooth(form) is is_smooth_three_charts(form)


if __name__ == "__main__":
    print(json.dumps(transcript(), indent=1))
