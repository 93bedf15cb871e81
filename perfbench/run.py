"""Benchmark for manalyzer.

    python3 perfbench/run.py --workload {wide,deep,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Inputs come from the seed; one run measures closed loop for ``--seconds``
and checks every output. The run prints each metric by name with its unit
and, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every second iteration is traced and
the metrics are the per-layer ones, including the tracing overhead. Spans
go to ``.perfbench_out/trace-<workload>-seed<N>.jsonl``. The exit code is
non-zero when a check fails or the program raises.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, as
    BENCHMARK.json declares them. The per-layer ones there are those every
    workload exercises; the others are printed only."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def static_figures() -> tuple[dict[str, float], list[str]]:
    """The ``src/`` line count and the declared runtime dependencies."""
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    deps: list[str] = []
    in_deps = False
    for raw in (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line.startswith("dependencies"):
            in_deps = True
        elif in_deps and line.startswith("]"):
            break
        elif in_deps and line:
            deps.append(line.strip('",'))
    return {"static.src_lines": lines, "static.runtime_deps": len(deps)}, deps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="manalyzer benchmark")
    parser.add_argument("--workload", required=True, choices=("wide", "deep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "manalyzer" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: {ROOT} is not a manalyzer checkout (src/manalyzer or corpus/ missing)",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()

    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(args.workload, args.seed, args.seconds, bool(args.trace), OUT, work)
    ctx.trace_path.unlink(missing_ok=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in outcome.notes:
        print(note)
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}")
    print(f"fail_ratio: {outcome.failed}/{outcome.attempted} operations "
          f"= {outcome.failed / outcome.attempted:.4f}")
    if args.trace:
        figures, deps = static_figures()
        layers = {**outcome.layers, **figures}
        print("runtime dependencies: " + ", ".join(deps))
        for name in sorted(layers):
            print(f"{name}: {layers[name]:.6g} {unit_of(name)}")
        print(f"tracing overhead: {layers['tracing.overhead_s']:.4f} s per run "
              f"(spans in {ctx.trace_path.relative_to(ROOT)})")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": outcome.metrics[name], "unit": unit}
                   for name, unit in end_to_end.items()}
    for name, value in outcome.metrics.items():
        print(f"{name}: {value:.6g} {end_to_end.get(name) or unit_of(name)}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
