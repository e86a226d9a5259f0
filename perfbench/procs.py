"""Child interpreters under a deadline and an address-space cap."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ADDRESS_SPACE_CAP = 512 * 2**20  # bytes, for every child


@dataclass(frozen=True)
class ChildResult:
    code: int | None  # None when the deadline killed the child
    out: str
    err: str
    seconds: float  # spawn to exit


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_python(args, deadline: float) -> ChildResult:
    """Run ``python <args>`` from the checkout root; kill it at the deadline."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=_env(), text=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=limit,
    )
    try:
        out, err = proc.communicate(timeout=deadline)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    return ChildResult(code, out, err, perf_counter() - start)


def write_files(files) -> None:
    """Write an item's input files, given as (path relative to the root, text)."""
    for rel, text in files:
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
