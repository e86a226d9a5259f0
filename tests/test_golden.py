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


if __name__ == "__main__":
    print(json.dumps(transcript(), indent=1))
