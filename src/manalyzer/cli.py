"""Command-line surface, on the standard library's argparse.

Exit codes: 0 success, 2 validation problem (any ValueError, which every
`errors.ValidationError` is: bad config, schema, or workspace state), 3
failure at runtime (any other ManalyzerError, or an OSError such as a full
disk). argparse exits 2 on a usage error before any command runs. An option
value that starts with `-` goes after an equals sign: `--direction=-omega3`.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import collector, evaluation, reviewer
from .config import PipelineConfig, load_config
from .errors import ConfigError, ManalyzerError
from .pipeline import Pipeline, Provider, build_provider, load_template, status_text
from .workspace import Workspace


def _existing(value: str) -> Path:
    if not Path(value).exists():
        raise argparse.ArgumentTypeError(f"path {value!r} does not exist")
    return Path(value)


# argparse's own -h is left out, so that --help is the one help option.
_HELP = ("--help", dict(action="help", help="Show this message and exit."))
_PARSER = argparse.ArgumentParser(
    prog="manalyzer", add_help=False, allow_abbrev=False,
    description="Meta-analysis pipeline: screen papers, extract cited data, report.",
)
_PARSER.add_argument("--workspace", type=Path, default=Path("workspace"),
                     help="Workspace directory. (default: %(default)s)")
_PARSER.add_argument("--config", type=_existing, help="Config file (flat key = value lines).")
_PARSER.add_argument(_HELP[0], **_HELP[1])
_COMMANDS = _PARSER.add_subparsers(required=True, metavar="COMMAND")


def _command(*options: tuple[str, dict]):
    """Registers the decorated function as the command of its dashed name and docstring."""
    def register(fn):
        parser = _COMMANDS.add_parser(fn.__name__.replace("_", "-"), help=fn.__doc__,
                                      description=fn.__doc__, add_help=False, allow_abbrev=False)
        for flag, kwargs in (*options, _HELP):
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(run=fn)
        return fn
    return register


def _provider(args: argparse.Namespace, config: PipelineConfig) -> Provider:
    """The configured provider; a script path is relative to the config file."""
    return build_provider(config, args.config.parent if args.config else Path.cwd())


def _open(args: argparse.Namespace, **overrides) -> Pipeline:
    """The workspace's pipeline, with each non-None override for this command only."""
    config = load_config(args.config)
    ws = Workspace.load(args.workspace)
    ws.check_config(config)
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    return Pipeline(ws, config, _provider(args, config))


@_command(
    ("--direction", dict(required=True, help="Research direction / topic.")),
    ("--template", dict(type=_existing, help="Extraction template: one column name per line.")),
)
def init(args: argparse.Namespace) -> None:
    """Create a fresh workspace."""
    config = load_config(args.config)
    provider = _provider(args, config)  # a bad provider or template fails before any write
    columns = load_template(args.template) if args.template is not None else None
    ws = Workspace.init(args.workspace, args.direction, config)
    if columns is not None:
        Pipeline(ws, config, provider).store_template(columns)
    print(f"initialized workspace at {args.workspace}")


@_command(
    ("--max-papers", dict(type=int, default=50, help="(default: %(default)s)")),
    ("--source", dict(choices=["crossref", "arxiv", "both"], default="both",
                      help="(default: %(default)s)")),
)
def collect(args: argparse.Namespace) -> None:
    """Generate keywords, query search APIs, and download PDFs."""
    pipe = _open(args)
    sources = ["crossref", "arxiv"] if args.source == "both" else [args.source]
    groups = collector.generate_keywords(pipe.ws.direction, pipe.gateway)
    collected: dict[str, collector.PaperMeta] = {}  # by dedup key, in the order found
    for group in groups:
        if len(collected) >= args.max_papers:
            break
        query = " ".join(group)
        for src in sources:
            for meta in collector.search(src, query, pipe.config.collect_per_query_cap):
                key = collector.dedup_key(meta.doi, meta.title)
                if key in collected or len(collected) >= args.max_papers:
                    continue
                collected[key] = meta
    papers_dir = pipe.ws.dir("papers")
    downloaded = 0
    for meta in collected.values():
        try:
            collector.download_pdf(meta, papers_dir)
            downloaded += 1
        except ManalyzerError as exc:
            print(f"skipping {meta.doc_id}: {exc}", file=sys.stderr)
            continue
        pipe.ws.mark(meta.doc_id, "collected")
    pipe.ws.compact()
    print(f"collected {downloaded} of {len(collected)} candidate papers")


@_command(("--from", dict(dest="source_dir", type=_existing, required=True,
                          help="Directory of parsed-document files (plus images).")))
def ingest(args: argparse.Namespace) -> None:
    """Import externally parsed documents into the workspace."""
    doc_ids = _open(args).ingest_dir(args.source_dir)
    print(f"ingested {len(doc_ids)} documents")


@_command(("--budget", dict(type=int, help="Override packer.budget.")))
def pack(args: argparse.Namespace) -> None:
    """Rate paragraphs and pack each document under the weight budget."""
    _open(args, packer_budget=args.budget).stage_pack()
    print("pack stage complete")


@_command(
    ("--threshold", dict(type=float, help="Override reviewer.threshold.")),
    ("--batch-size", dict(type=int, help="Override reviewer.batch_size.")),
)
def screen(args: argparse.Namespace) -> None:
    """Run hybrid review and screen papers by final score."""
    pipe = _open(args, reviewer_threshold=args.threshold, reviewer_batch_size=args.batch_size)
    pipe.stage_review()
    pipe.stage_screen()
    records, failures = pipe.load_review_records()
    print(
        f"kept {sum(r.kept for r in records)} of {len(records)} reviewed papers "
        f"({len(failures)} review failures)"
    )


@_command(("--gold", dict(type=_existing, required=True,
                          help="Gold labels: one 'doc_id 0|1' per line.")))
def screen_eval(args: argparse.Namespace) -> None:
    """Score screening decisions against gold labels."""
    pipe = _open(args)
    labels = reviewer.load_screening_gold(args.gold)
    records, _ = pipe.load_review_records()
    corpus = set(labels)
    predicted = {r.doc_id for r in records if r.kept} & corpus
    gold = {doc_id for doc_id, keep in labels.items() if keep}
    metrics = reviewer.classification_metrics(predicted, gold, corpus)
    for name in ("accuracy", "precision", "recall", "f1"):
        print(f"{name + ':':<11}{getattr(metrics, name):.4f}")
    print(f"tp={metrics.tp} fp={metrics.fp} tn={metrics.tn} fn={metrics.fn}")


@_command(
    ("--template", dict(type=_existing, help="Extraction template (column names, one per line).")),
    ("--topic", dict(help="Direction to use in this command only.")),
    ("--max-iter", dict(type=int, choices=range(1, 4))),
)
def extract(args: argparse.Namespace) -> None:
    """Extract cited data tables from screened-in papers."""
    if args.topic is not None and not args.topic.strip():
        raise ConfigError("--topic is empty")
    pipe = _open(args, extraction_max_iter=args.max_iter)
    if args.template is not None:
        pipe.store_template(load_template(args.template))
    pipe.stage_extract(pipe.load_stored_template(), args.topic)
    print("extract stage complete")


@_command(("--seed", dict(type=int, help="Override analysis.seed.")))
def analyze(args: argparse.Namespace) -> None:
    """Merge accepted tables and run the analysis toolkit."""
    _open(args, analysis_seed=args.seed).stage_analyze(force=True)
    print("analyze stage complete")


@_command()
def report(args: argparse.Namespace) -> None:
    """Render the final Markdown report."""
    pipe = _open(args)
    pipe.stage_report(force=True)
    print(pipe.ws.report_path)


@_command(
    ("--gold", dict(type=_existing, required=True,
                    help="Gold data points, one JSON record per line.")),
    ("--abs-tol", dict(type=float)),
    ("--rel-tol", dict(type=float, help="Overrides the per-level default.")),
)
def eval_extraction(args: argparse.Namespace) -> None:
    """Hit rate of extracted values against gold data points, per level."""
    pipe = _open(args)
    config = pipe.config
    gold = evaluation.load_gold(args.gold)
    extracted: dict[str, list[float]] = {}
    for doc_id in pipe.ws.doc_ids():
        table = pipe.load_table(doc_id)
        if table is not None:
            extracted[doc_id] = [value for _, _, value in table.numeric_cells()]
    results = [
        result
        for level in evaluation.LEVELS
        for result in evaluation.evaluate_extraction(
            extracted, [p for p in gold if p.level == level],
            abs_tol=config.eval_abs_tol if args.abs_tol is None else args.abs_tol,
            rel_tol=evaluation.default_rel_tol(level, config) if args.rel_tol is None else args.rel_tol,
        )
    ]
    levels = evaluation.aggregate(results)
    print("| Level | Docs | Mean hit rate |")
    print("| --- | --- | --- |")
    for level in sorted(levels):
        count = sum(1 for r in results if r.level == level)
        print(f"| {level} | {count} | {levels[level]:.4f} |")


@_command(("--template", dict(type=_existing,
                              help="Extraction template (stored in the workspace on first run).")))
def run(args: argparse.Namespace) -> None:
    """Run every remaining stage through to the report."""
    pipe = _open(args)
    columns = load_template(args.template) if args.template is not None else None
    summary = pipe.run(columns)
    print(f"documents:       {summary.total_docs}")
    print(f"packed:          {summary.packed}")
    print(f"reviewed:        {summary.reviewed} ({summary.review_failures} failed)")
    print(f"screened in:     {summary.screened_in}")
    print(f"extracted:       {summary.extracted}")
    print(f"accepted tables: {summary.accepted}")
    print(f"merged rows:     {summary.merged_rows}")
    if summary.report_path:
        print(f"report:          {summary.report_path}")


@_command()
def resume(args: argparse.Namespace) -> None:
    """Continue an interrupted run from the manifest."""
    run(argparse.Namespace(**vars(args), template=None))


@_command()
def status(args: argparse.Namespace) -> None:
    """Show the per-document stage matrix."""
    print(status_text(Workspace.load(args.workspace)), end="")


def main(argv: list[str] | None = None) -> int:
    """Run the command that `argv` (default: `sys.argv[1:]`) names and return its
    exit code. On a usage error argparse exits 2 by itself, and 0 after --help."""
    args = _PARSER.parse_args(argv)
    try:
        args.run(args)
    except (ManalyzerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3
    return 0
