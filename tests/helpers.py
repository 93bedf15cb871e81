"""Helpers shared by the test modules."""

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import manalyzer
from manalyzer import cli
from manalyzer.gateway import AgentRequest, ScriptedProvider, digest_request


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(argv) -> CliResult:
    """Run `manalyzer *argv` in process, capturing stdout and stderr. A usage
    error or `--help` ends argparse's parse by SystemExit, whose code is the
    exit code; any other exception propagates."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([str(arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return CliResult(code or 0, stdout.getvalue(), stderr.getvalue())


def run_python(code):
    """Run `code` in a fresh interpreter that imports manalyzer from this tree."""
    src = str(Path(manalyzer.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )


def tree(root: Path) -> dict[str, bytes]:
    """Every file under `root`, by its posix path relative to `root`."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def register_for(provider: ScriptedProvider, request: AgentRequest, response: str) -> str:
    """Script `response` as the reply to this exact request; returns the
    request's digest."""
    digest = digest_request(request)
    provider.register_script(request.request_tag, digest, response)
    return digest


def edge_values(rng, pool, count, abs_tol, rel_tol):
    """`count` values packed at the tolerance bounds of the reference values
    in `pool`: each is some b, b +/- w (w its tolerance width), or one ulp
    inside or beyond one of those bounds."""
    values = []
    for _ in range(count):
        b = rng.choice(pool)
        bound = b + rng.choice([-1, 1]) * max(abs_tol, rel_tol * abs(b))
        values.append(rng.choice([
            b, bound, math.nextafter(bound, math.inf), math.nextafter(bound, -math.inf),
        ]))
    return values
