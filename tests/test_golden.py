"""Golden pins of four CLI flows over the bundled corpus: characterization
tests.

Each flow runs in process through `helpers.run_cli`, in a fresh workspace:

- readme: the README's command sequence (init, ingest, run, status,
  screen-eval, eval-extraction);
- stagewise: init, ingest, then pack, screen, extract, analyze, report and
  status one command at a time;
- threshold: after pack, `screen --threshold 11` keeps 4 of 10 papers,
  screen-eval scores that, and `run` then fails at analyze (exit 3),
  because the corpus script has no `plan` reply for the smaller merged
  table;
- errors: after pack, `screen --batch-size 3` fails the review stage
  (exit 3), and `extract --topic " "` is refused (exit 2).

`golden/<flow>_flow.json` pins:

- each command's argv, exit code, stdout and stderr, with the workspace
  and corpus paths written as <ws> and <corpus>;
- the sorted (tag, digest) agent-call counts over the whole flow;
- the sha256 of every workspace file. The analysis floats are pinned by
  their bytes too: they are computed on the standard library in a fixed
  order of operations, so a change of summation order on any interpreter
  shows here.

After a deliberate change of behaviour, rewrite the pin with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which pinned bytes changed, and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from manalyzer import cli

from helpers import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"

COMMON = ["--workspace", "<ws>", "--config", "<corpus>/config.txt"]
README_FLOW = [
    [*COMMON, "init", "--direction",
     "impact of seasonal rainfall on wheat yield in irrigated field trials",
     "--template", "<corpus>/template.txt"],
    [*COMMON, "ingest", "--from", "<corpus>/docs"],
    [*COMMON, "run"],
    [*COMMON, "status"],
    [*COMMON, "screen-eval", "--gold", "<corpus>/screening_gold.txt"],
    [*COMMON, "eval-extraction", "--gold", "<corpus>/gold.jsonl"],
]
SETUP = README_FLOW[:2]  # init, ingest
FLOWS = {
    "readme": README_FLOW,
    "stagewise": [
        *SETUP,
        *([*COMMON, command] for command in
          ("pack", "screen", "extract", "analyze", "report", "status")),
    ],
    "threshold": [
        *SETUP,
        [*COMMON, "pack"],
        [*COMMON, "screen", "--threshold", "11"],
        [*COMMON, "screen-eval", "--gold", "<corpus>/screening_gold.txt"],
        [*COMMON, "run"],
    ],
    "errors": [
        *SETUP,
        [*COMMON, "pack"],
        [*COMMON, "screen", "--batch-size", "3"],
        [*COMMON, "extract", "--topic", " "],
    ],
}


def run_flow(ws: Path, flow: list[list[str]]) -> dict:
    """Run `flow` into `ws` and return what the pin records."""
    def real(text: str) -> str:
        return text.replace("<ws>", str(ws)).replace("<corpus>", str(CORPUS))

    def placeholder(text: str) -> str:
        return text.replace(str(ws), "<ws>").replace(str(CORPUS), "<corpus>")

    providers = []
    build_provider = cli.build_provider

    def recording_provider(config, base):
        providers.append(build_provider(config, base))
        return providers[-1]

    commands = []
    cli.build_provider = recording_provider
    try:
        for argv in flow:
            result = run_cli([real(arg) for arg in argv])
            commands.append({
                "argv": argv,
                "exit_code": result.exit_code,
                "stdout": placeholder(result.stdout),
                "stderr": placeholder(result.stderr),
            })
    finally:
        cli.build_provider = build_provider

    calls = Counter(key for provider in providers for key in provider.calls)
    files = {
        path.relative_to(ws).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(p for p in ws.rglob("*") if p.is_file())
    }
    return {
        "commands": commands,
        "calls": [[tag, digest, count] for (tag, digest), count in sorted(calls.items())],
        "files": files,
    }


def _pin(flow: str) -> Path:
    return GOLDEN / f"{flow}_flow.json"


def _assert_matches_pin(flow: str, ws: Path) -> None:
    pinned = json.loads(_pin(flow).read_text(encoding="utf-8"))
    observed = run_flow(ws, FLOWS[flow])
    for got, want in zip(observed["commands"], pinned["commands"]):
        assert got == want, f"command {' '.join(want['argv'][4:])} differs"
    assert len(observed["commands"]) == len(pinned["commands"])
    assert observed["calls"] == pinned["calls"], "agent calls differ"
    changed = sorted(
        name for name in pinned["files"].keys() | observed["files"].keys()
        if pinned["files"].get(name) != observed["files"].get(name)
    )
    assert not changed, f"workspace files differ from the pin: {changed}"


def test_readme_flow_matches_the_pin(tmp_path):
    _assert_matches_pin("readme", tmp_path / "demo")


def test_stagewise_flow_matches_the_pin(tmp_path):
    _assert_matches_pin("stagewise", tmp_path / "demo")


def test_threshold_flow_matches_the_pin(tmp_path):
    _assert_matches_pin("threshold", tmp_path / "demo")


def test_errors_flow_matches_the_pin(tmp_path):
    _assert_matches_pin("errors", tmp_path / "demo")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for flow, argvs in FLOWS.items():
        with tempfile.TemporaryDirectory() as tmp:
            pin = run_flow(Path(tmp) / "demo", argvs)
        _pin(flow).write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {_pin(flow)}", file=sys.stderr)
