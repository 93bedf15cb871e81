"""The benchmark's workloads, each closed loop with one client.

* ``wide``: many short documents replayed through the ScriptedProvider
  with a fixed latency per call, interrupted after review and resumed
  from ``Workspace.load``. Stresses orchestration over many documents,
  manifest rewrites, artifact I/O, digests and the resume path; no
  knapsack.
* ``deep``: a dozen long documents over a small packer budget with an
  in-process provider that sleeps a fixed latency per call and plants
  re-asks, a review failure, revision rounds and a never-accepted table.
  The longest document's serial chain of paragraph scores sets the time.
* ``cli``: the README command sequence over the bundled ``corpus/``, one
  subprocess per command, each time in a fresh workspace. Stresses
  start-up, imports, config parsing, script loading and workspace reads.

Every run checks its outputs; an operation (a document, or one CLI
invocation) fails when its outcome differs from the planted expectation.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import corpus as corpus_mod
import tracing
from manalyzer import evaluation, reviewer, synth
from manalyzer.config import PipelineConfig, load_config
from manalyzer.gateway import ScriptedProvider
from manalyzer.pipeline import Pipeline, build_provider, load_template
from manalyzer.workspace import Workspace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_ENTRY = HERE / "cli_entry.py"
BUNDLED_CORPUS = ROOT / "corpus"

WIDE_DOCS = 100
WIDE_LATENCY_S = 0.04
DEEP_LATENCY_S = 0.002
SETUP_REPEATS = 3
MIN_ITERATIONS = 3
CLI_MIN_INVOCATIONS = 40
IMPORT_SAMPLES = 5
SUBPROCESS_TIMEOUT_S = 120
README_COMMANDS = ("init", "ingest", "run", "status", "resume", "screen-eval", "eval-extraction")


@dataclass
class Iteration:
    """One timed pass: its wall time, agent calls, checked operations, and
    its untraced CLI invocations."""

    run_s: float
    calls: int
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    invocations: list[tuple[str, float]] = field(default_factory=list)


@dataclass
class Outcome:
    metrics: dict[str, float]
    layers: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    notes: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


class Context:
    """One run's settings and its scratch directory under the checkout,
    which ``run.py`` removes when the run ends."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, out_dir: Path,
                 work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        self.work = work_dir
        self._count = 0

    def fresh(self, name: str) -> Path:
        self._count += 1
        path = self.work / f"{name}-{self._count}"
        path.mkdir(parents=True)
        return path

    @property
    def trace_path(self) -> Path:
        return self.out_dir / f"trace-{self.workload}-seed{self.seed}.jsonl"


# -- shared helpers ------------------------------------------------------------

@contextmanager
def no_network() -> Iterator[None]:
    """Any socket use fails the run: the in-process workloads are offline."""
    def refuse(*args: object, **kwargs: object) -> None:
        raise AssertionError("network access attempted during the benchmark")

    saved = socket.socket, socket.create_connection
    socket.socket, socket.create_connection = refuse, refuse  # type: ignore[assignment,misc]
    try:
        yield
    finally:
        socket.socket, socket.create_connection = saved  # type: ignore[misc]


def snapshot_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def extracted_values(root: Path, doc_ids: list[str]) -> dict[str, list[float]]:
    values = {}
    for doc_id in doc_ids:
        path = root / "extracted" / doc_id / "table.json"
        if path.exists():
            rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
            values[doc_id] = [cell for row in rows for cell in row if cell is not None]
    return values


def hit_rate_failures(root: Path, corpus: corpus_mod.Corpus) -> set[str]:
    """Kept documents whose level-1 or level-2 hit rate is below 1.0."""
    # Called through the modules so a traced run sees these calls.
    gold = evaluation.load_gold(corpus.gold_path)
    results = evaluation.evaluate_extraction(extracted_values(root, corpus.doc_ids), gold)
    return {r.doc_id for r in results if r.level in (1, 2) and r.hit_rate != 1.0}


def screening_failures(pipe: Pipeline, corpus: corpus_mod.Corpus) -> tuple[set[str], list[str]]:
    records, _ = pipe.load_review_records()
    predicted = {r.doc_id for r in records if r.kept}
    gold = set(corpus.kept)
    problems = []
    f1 = reviewer.classification_metrics(predicted, gold, set(corpus.doc_ids)).f1
    if f1 != 1.0:
        problems.append(f"screening F1 is {f1}, not 1.0")
    return predicted ^ gold, problems


def timed_setup(ctx: Context, build: Callable[[], object]) -> tuple[float, object]:
    """Set-up time and the last build's result. The time is the median
    import time of the benchmark (and so of the program) in fresh
    interpreters plus the median time of SETUP_REPEATS builds."""
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return import_s(ctx, "workloads") + statistics.median(times), result


def measure(ctx: Context, iterate: Callable[[tracing.Tracer | None], Iteration],
            provider_classes: tuple[type, ...] = (), min_invocations: int = 0
            ) -> tuple[list[Iteration], list[Iteration], list[dict]]:
    """Closed loop of passes until ``ctx.seconds`` have elapsed, at least
    MIN_ITERATIONS passes are measured and ``min_invocations`` untraced CLI
    invocations are made. With tracing on, every second pass is traced,
    so the run also measures the tracing overhead."""
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    layers: list[dict] = []
    deadline = time.perf_counter() + ctx.seconds
    while (len(plain) < MIN_ITERATIONS or (ctx.trace and len(traced) < MIN_ITERATIONS)
           or sum(len(r.invocations) for r in plain + traced) < min_invocations
           or time.perf_counter() < deadline):
        if not (ctx.trace and len(traced) < len(plain)):
            last = iterate(None)
            plain.append(last)
        else:
            tracer = tracing.Tracer()
            tracer.install(provider_classes)
            try:
                last = iterate(tracer)
            finally:
                tracer.restore()
            traced.append(last)
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans, PipelineConfig().max_concurrency))
            tracing.dump_spans(spans, ctx.trace_path, iteration=len(traced))
    return plain, traced, layers


def median_layers(layers: list[dict]) -> dict[str, float]:
    keys = sorted({k for m in layers for k in m})
    return {k: statistics.median(m.get(k, 0.0) for m in layers) for k in keys}


def outcome(ctx: Context, setup_s: float, plain: list[Iteration], traced: list[Iteration],
            layers: list[dict], rss_who: int, notes: list[str]) -> Outcome:
    runs = plain + traced
    invocations = [inv for r in runs for inv in r.invocations]
    latencies = [wall for _, wall in invocations]
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(r.run_s for r in plain),
        "agent_calls": statistics.median(r.calls for r in plain),
        "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024,
    }
    if latencies:
        metrics["cli_p50_s"] = statistics.median(latencies)
        metrics["cli_p75_s"] = statistics.quantiles(latencies, n=4)[2]
    layer_values: dict[str, float] = {}
    if ctx.trace:
        layer_values = median_layers(layers)
        layer_values["tracing.overhead_s"] = (
            statistics.median(r.run_s for r in traced) - metrics["run_s"]
        )
        layer_values["cli.import_s"] = import_s(ctx, "manalyzer.cli")
        for command in sorted({c for c, _ in invocations}):
            layer_values[f"cli.{command}_p50_s"] = statistics.median(
                wall for c, wall in invocations if c == command)
    notes.append(f"samples: {len(plain)} untraced passes, {len(traced)} traced passes"
                 + (f", {len(latencies)} untraced CLI invocations" if latencies else ""))
    notes.append("untraced pass run_s: " + " ".join(f"{r.run_s:.3f}" for r in plain))
    return Outcome(
        metrics=metrics, layers=layer_values,
        attempted=sum(r.attempted for r in runs), failed=sum(r.failed for r in runs),
        problems=[p for r in runs for p in r.problems], notes=notes,
    )


# -- CLI subprocesses ----------------------------------------------------------

def invoke(ctx: Context, argv: list[str], trace_file: Path | None = None
           ) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE", None)
    if trace_file is not None:
        env["PERFBENCH_TRACE"] = str(trace_file)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CLI_ENTRY), *argv], cwd=ctx.work, env=env,
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def import_s(ctx: Context, module: str) -> float:
    """Median time to import ``module`` in IMPORT_SAMPLES fresh interpreters."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[2:]; t = time.perf_counter(); "
        "__import__(sys.argv[1]); print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code, module, str(ROOT / "src"), str(HERE)],
                              cwd=ctx.work, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def command_args(command: str, ws: Path, config: Path, data: Path) -> list[str]:
    """argv for one README command; ``data`` holds docs/, gold files and the template."""
    tail = {
        "init": ["--direction", synth.DIRECTION, "--template", str(data / "template.txt")],
        "ingest": ["--from", str(data / "docs")],
        "screen-eval": ["--gold", str(data / "screening_gold.txt")],
        "eval-extraction": ["--gold", str(data / "gold.jsonl")],
    }.get(command, [])
    return ["--workspace", str(ws), "--config", str(config), command, *tail]


def output_problem(command: str, proc: subprocess.CompletedProcess) -> str | None:
    """Why an invocation's result is wrong, or None when it is right."""
    if proc.returncode != 0:
        return f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    if command == "screen-eval" and "f1:        1.0000" not in proc.stdout:
        return f"screen-eval did not report F1 1.0: {proc.stdout!r}"
    if command == "eval-extraction":
        rows = [ln for ln in proc.stdout.splitlines() if ln.startswith(("| 1 |", "| 2 |"))]
        if len(rows) != 2 or not all(ln.endswith("| 1.0000 |") for ln in rows):
            return f"eval-extraction levels 1-2 not at hit rate 1.0: {proc.stdout!r}"
    return None


# -- wide ----------------------------------------------------------------------

def run_wide(ctx: Context) -> Outcome:
    def build() -> tuple[corpus_mod.Corpus, Path, int]:
        corpus = corpus_mod.build_wide(ctx.fresh("wide-corpus"), WIDE_DOCS, ctx.seed)
        provider = corpus_mod.AnsweringProvider(
            corpus_mod.wide_answer(corpus), latency_s=WIDE_LATENCY_S, record=True)
        config = load_config(corpus.config_path)
        ws = Workspace.init(ctx.fresh("wide-recording"), synth.DIRECTION, config)
        pipe = Pipeline(ws, config, provider)
        pipe.ingest_dir(corpus.docs_dir)
        pipe.run(synth.TEMPLATE)
        provider.recorded.save_script(corpus.root / "script.jsonl")
        return corpus, ws.root, provider.calls

    with no_network():
        setup_s, (corpus, recording, recorded_calls) = timed_setup(ctx, build)
    reference = snapshot_tree(recording)
    config = load_config(corpus.config_path)
    script = corpus.root / "script.jsonl"

    def iterate(tracer: tracing.Tracer | None) -> Iteration:
        first = corpus_mod.DelayedProvider(ScriptedProvider.load_script(script), WIDE_LATENCY_S)
        second = corpus_mod.DelayedProvider(ScriptedProvider.load_script(script), WIDE_LATENCY_S)
        ws = Workspace.init(ctx.fresh("wide-ws"), synth.DIRECTION, config)
        start = time.perf_counter()
        pipe = Pipeline(ws, config, first)
        pipe.ingest_dir(corpus.docs_dir)
        pipe.store_template(synth.TEMPLATE)
        pipe.stage_pack()
        pipe.stage_review()
        del pipe
        resumed = Workspace.load(ws.root)
        resumed.check_config(config)
        pipe = Pipeline(resumed, config, second)
        pipe.run(None)
        run_s = time.perf_counter() - start
        return check_wide(corpus, pipe, reference, recorded_calls, first.inner, second.inner, run_s)

    with no_network():
        plain, traced, layers = measure(ctx, iterate, (corpus_mod.DelayedProvider,))
    notes = [f"wide: {WIDE_DOCS} documents, seed {ctx.seed}, {WIDE_LATENCY_S * 1000:g} ms "
             f"replay latency per call, {recorded_calls} recorded agent calls"]
    return outcome(ctx, setup_s, plain, traced, layers, resource.RUSAGE_SELF, notes)


def check_wide(corpus: corpus_mod.Corpus, pipe: Pipeline, reference: dict[str, bytes],
               recorded_calls: int, first: ScriptedProvider, second: ScriptedProvider,
               run_s: float) -> Iteration:
    tree = snapshot_tree(pipe.ws.root)
    bad: set[str] = set()
    problems: list[str] = []
    for rel in sorted(set(tree) | set(reference)):
        if tree.get(rel) != reference.get(rel):
            match = corpus_mod.TOKEN.search(rel)
            if match:
                bad.add(match.group(0))
            else:
                problems.append(f"{rel} differs from the recording run")
    shared = set(first.calls) & set(second.calls)
    if shared:
        problems.append(f"the resumed half repeated {len(shared)} agent calls")
    calls = len(first.calls) + len(second.calls)
    if calls != recorded_calls:
        problems.append(f"{calls} agent calls, the recording run made {recorded_calls}")
    screen_bad, screen_problems = screening_failures(pipe, corpus)
    problems += screen_problems
    bad |= screen_bad | hit_rate_failures(pipe.ws.root, corpus)
    failed = len(corpus.doc_ids) if problems else len(bad)
    return Iteration(run_s, calls, len(corpus.doc_ids), failed, problems)


# -- deep ----------------------------------------------------------------------

def run_deep(ctx: Context) -> Outcome:
    with no_network():
        setup_s, corpus = timed_setup(
            ctx, lambda: corpus_mod.build_deep(ctx.fresh("deep-corpus"), ctx.seed))
    config = load_config(corpus.config_path)
    answer = corpus_mod.deep_answer(corpus)

    def iterate(tracer: tracing.Tracer | None) -> Iteration:
        provider = corpus_mod.AnsweringProvider(answer, latency_s=DEEP_LATENCY_S)
        ws = Workspace.init(ctx.fresh("deep-ws"), synth.DIRECTION, config)
        start = time.perf_counter()
        pipe = Pipeline(ws, config, provider)
        pipe.ingest_dir(corpus.docs_dir)
        pipe.run(synth.TEMPLATE)
        run_s = time.perf_counter() - start
        return check_deep(corpus, pipe, provider.calls, run_s)

    with no_network():
        plain, traced, layers = measure(ctx, iterate, (corpus_mod.AnsweringProvider,))
    notes = [
        f"deep: {len(corpus.doc_ids)} documents of {min(corpus.lengths.values())}-"
        f"{max(corpus.lengths.values())} paragraphs, packer.budget {corpus.budget}, seed {ctx.seed}, "
        f"{DEEP_LATENCY_S * 1000:g} ms simulated latency per call, "
        f"{corpus.expected_calls} agent calls expected",
        "deep roles: " + ", ".join(f"{d}={r}" for d, r in sorted(corpus.roles.items())),
    ]
    return outcome(ctx, setup_s, plain, traced, layers, resource.RUSAGE_SELF, notes)


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_deep(corpus: corpus_mod.Corpus, pipe: Pipeline, calls: int, run_s: float) -> Iteration:
    root = pipe.ws.root
    ws = Workspace.load(root)
    bad: set[str] = set()
    problems: list[str] = []
    final_status = {"review_failure": "screened_out", "screened_out": "screened_out",
                    "never_accepted": "unaccepted"}
    attempts = {"revise": 2, "never_accepted": 3}
    for doc_id in corpus.doc_ids:
        role = corpus.role(doc_id)
        length = corpus.lengths[doc_id]
        ok = ws.status_of(doc_id) == final_status.get(role, "analyzed")
        review = _read(root / "reviews" / f"{doc_id}.json")
        ok &= bool(review.get("failed")) == (role == "review_failure")
        packed = _read(root / "packed" / f"{doc_id}.json")
        selected = packed["selected_indices"]
        if doc_id in corpus.knapsack:
            ok &= {0, 2} <= set(selected) and len(selected) < length
            ok &= packed["total_weight"] <= packed["budget"]
        else:
            ok &= selected == list(range(length))
        if doc_id in corpus.kept:
            v = synth.planted_values(doc_id)
            table = _read(root / "extracted" / doc_id / "table.json")
            trace = _read(root / "extracted" / doc_id / "trace.json")
            ok &= table["rows"] == [[1.0, v["r1"], v["y1"]], [2.0, v["r2"], v["y2"]]]
            ok &= table["accepted"] == (role != "never_accepted")
            ok &= len(trace["trace"]) == attempts.get(role, 1)
        if not ok:
            bad.add(doc_id)
    if calls != corpus.expected_calls:
        problems.append(f"{calls} agent calls, {corpus.expected_calls} expected")
    if not pipe.ws.report_path.exists():
        problems.append("no report.md written")
    screen_bad, screen_problems = screening_failures(pipe, corpus)
    problems += screen_problems
    bad |= screen_bad | hit_rate_failures(root, corpus)
    failed = len(corpus.doc_ids) if problems else len(bad)
    return Iteration(run_s, calls, len(corpus.doc_ids), failed, problems)


# -- cli -----------------------------------------------------------------------

def run_cli(ctx: Context) -> Outcome:
    config_path = BUNDLED_CORPUS / "config.txt"
    template = load_template(BUNDLED_CORPUS / "template.txt")

    def reference_run() -> tuple[bytes, int]:
        config = load_config(config_path)
        provider = build_provider(config, BUNDLED_CORPUS)
        ws = Workspace.init(ctx.fresh("cli-reference"), synth.DIRECTION, config)
        pipe = Pipeline(ws, config, provider)
        pipe.ingest_dir(BUNDLED_CORPUS / "docs")
        pipe.run(template)
        return ws.report_path.read_bytes(), len(provider.calls)

    with no_network():
        setup_s, (report, calls) = timed_setup(ctx, reference_run)

    def iterate(tracer: tracing.Tracer | None) -> Iteration:
        ws = ctx.fresh("cli-ws") / "ws"
        trace_files = [ws.parent / f"trace-{k}.jsonl" for k in range(len(README_COMMANDS))]
        iteration = Iteration(0.0, calls, len(README_COMMANDS), 0)
        for command, trace_file in zip(README_COMMANDS, trace_files):
            argv = command_args(command, ws, config_path, BUNDLED_CORPUS)
            wall, proc = invoke(ctx, argv, trace_file if tracer else None)
            iteration.run_s += wall
            problem = output_problem(command, proc)
            if command == "run" and not problem and (ws / "report.md").read_bytes() != report:
                problem = "report.md differs from the in-process run over corpus/"
            if problem:
                iteration.failed += 1
                iteration.problems.append(problem)
            if tracer is None:
                iteration.invocations.append((command, wall))
        if tracer is not None:
            tracer.spans.extend(tracing.load_spans([f for f in trace_files if f.exists()]))
        return iteration

    plain, traced, layers = measure(ctx, iterate, min_invocations=CLI_MIN_INVOCATIONS)
    notes = [f"cli: README sequence ({', '.join(README_COMMANDS)}) over corpus/, "
             f"{calls} agent calls in the in-process replay"]
    return outcome(ctx, setup_s, plain, traced, layers, resource.RUSAGE_CHILDREN, notes)


WORKLOADS = {"wide": run_wide, "deep": run_deep, "cli": run_cli}
