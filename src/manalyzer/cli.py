"""Command-line surface.

Exit codes: 0 success, 2 validation problem (any ValueError, which every
`errors.ValidationError` is: bad config, schema, or workspace state), 3
failure at runtime (any other ManalyzerError, or an OSError such as a full
disk).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import click

from . import collector, evaluation, reviewer
from .config import load_config
from .errors import ConfigError, ManalyzerError
from .pipeline import Pipeline, build_provider, load_template, status_text
from .workspace import Workspace


class _ExitCodes(click.Group):
    """Turns an error escaping any command into one ``error:`` line and
    the exit code above."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ManalyzerError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2 if isinstance(exc, ValueError) else 3)


@click.group(cls=_ExitCodes)
@click.option(
    "--workspace", "workspace_path", type=click.Path(path_type=Path),
    default=Path("workspace"), show_default=True, help="Workspace directory.",
)
@click.option(
    "--config", "config_path", type=click.Path(path_type=Path, exists=True),
    default=None, help="Config file (flat key = value lines).",
)
@click.pass_context
def main(ctx: click.Context, workspace_path: Path, config_path: Path | None) -> None:
    """Meta-analysis pipeline: screen papers, extract cited data, report."""
    ctx.ensure_object(dict)
    ctx.obj["workspace_path"] = workspace_path
    ctx.obj["config_path"] = config_path


def _open(ctx: click.Context, **overrides) -> Pipeline:
    """The workspace's pipeline, with each non-None override for this command only."""
    config = load_config(ctx.obj["config_path"])
    ws = Workspace.load(ctx.obj["workspace_path"])
    ws.check_config(config)
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        config = dataclasses.replace(config, **overrides)
    base = ctx.obj["config_path"].parent if ctx.obj["config_path"] else Path.cwd()
    return Pipeline(ws, config, build_provider(config, base))


@main.command()
@click.option("--direction", required=True, help="Research direction / topic.")
@click.option(
    "--template", "template_path", type=click.Path(path_type=Path, exists=True),
    default=None, help="Extraction template: one column name per line.",
)
@click.pass_context
def init(ctx: click.Context, direction: str, template_path: Path | None) -> None:
    """Create a fresh workspace."""
    config = load_config(ctx.obj["config_path"])
    base = ctx.obj["config_path"].parent if ctx.obj["config_path"] else Path.cwd()
    provider = build_provider(config, base)  # a bad provider fails before anything is written
    ws = Workspace.init(ctx.obj["workspace_path"], direction, config)
    if template_path is not None:
        Pipeline(ws, config, provider).store_template(load_template(template_path))
    click.echo(f"initialized workspace at {ctx.obj['workspace_path']}")


@main.command()
@click.option("--max-papers", type=int, default=50, show_default=True)
@click.option(
    "--source", type=click.Choice(["crossref", "arxiv", "both"]),
    default="both", show_default=True,
)
@click.pass_context
def collect(ctx: click.Context, max_papers: int, source: str) -> None:
    """Generate keywords, query search APIs, and download PDFs."""
    pipe = _open(ctx)
    sources = ["crossref", "arxiv"] if source == "both" else [source]
    groups = collector.generate_keywords(pipe.ws.direction, pipe.gateway)
    seen: set[str] = set()
    collected = []
    for group in groups:
        if len(collected) >= max_papers:
            break
        query = " ".join(group)
        for src in sources:
            for meta in collector.search(src, query, pipe.config.collect_per_query_cap):
                key = collector.dedup_key(meta.doi, meta.title)
                if key in seen or len(collected) >= max_papers:
                    continue
                seen.add(key)
                collected.append(meta)
    papers_dir = pipe.ws.dir("papers")
    downloaded = 0
    for meta in collected:
        try:
            collector.download_pdf(meta, papers_dir)
            downloaded += 1
        except ManalyzerError as exc:
            click.echo(f"skipping {meta.doc_id}: {exc}", err=True)
            continue
        pipe.ws.mark(meta.doc_id, "collected")
    pipe.ws.compact()
    click.echo(f"collected {downloaded} of {len(collected)} candidate papers")


@main.command()
@click.option(
    "--from", "source_dir", type=click.Path(path_type=Path, exists=True, file_okay=False),
    required=True, help="Directory of parsed-document files (plus images).",
)
@click.pass_context
def ingest(ctx: click.Context, source_dir: Path) -> None:
    """Import externally parsed documents into the workspace."""
    doc_ids = _open(ctx).ingest_dir(source_dir)
    click.echo(f"ingested {len(doc_ids)} documents")


@main.command()
@click.option("--budget", type=int, default=None, help="Override packer.budget.")
@click.pass_context
def pack(ctx: click.Context, budget: int | None) -> None:
    """Rate paragraphs and pack each document under the weight budget."""
    _open(ctx, packer_budget=budget).stage_pack()
    click.echo("pack stage complete")


@main.command()
@click.option("--threshold", type=float, default=None, help="Override reviewer.threshold.")
@click.option("--batch-size", type=int, default=None, help="Override reviewer.batch_size.")
@click.pass_context
def screen(ctx: click.Context, threshold: float | None, batch_size: int | None) -> None:
    """Run hybrid review and screen papers by final score."""
    pipe = _open(ctx, reviewer_threshold=threshold, reviewer_batch_size=batch_size)
    pipe.stage_review()
    pipe.stage_screen()
    records, failures = pipe.load_review_records()
    click.echo(
        f"kept {sum(r.kept for r in records)} of {len(records)} reviewed papers "
        f"({len(failures)} review failures)"
    )


@main.command("screen-eval")
@click.option(
    "--gold", "gold_path", type=click.Path(path_type=Path, exists=True), required=True,
    help="Gold labels: one 'doc_id 0|1' per line.",
)
@click.pass_context
def screen_eval(ctx: click.Context, gold_path: Path) -> None:
    """Score screening decisions against gold labels."""
    pipe = _open(ctx)
    labels = reviewer.load_screening_gold(gold_path)
    records, _ = pipe.load_review_records()
    corpus = set(labels)
    predicted = {r.doc_id for r in records if r.kept} & corpus
    gold = {doc_id for doc_id, keep in labels.items() if keep}
    metrics = reviewer.classification_metrics(predicted, gold, corpus)
    click.echo(f"accuracy:  {metrics.accuracy:.4f}")
    click.echo(f"precision: {metrics.precision:.4f}")
    click.echo(f"recall:    {metrics.recall:.4f}")
    click.echo(f"f1:        {metrics.f1:.4f}")
    click.echo(f"tp={metrics.tp} fp={metrics.fp} tn={metrics.tn} fn={metrics.fn}")


@main.command()
@click.option(
    "--template", "template_path", type=click.Path(path_type=Path, exists=True),
    default=None, help="Extraction template (column names, one per line).",
)
@click.option("--topic", default=None, help="Direction to use in this command only.")
@click.option("--max-iter", type=click.IntRange(1, 3), default=None)
@click.pass_context
def extract(
    ctx: click.Context, template_path: Path | None, topic: str | None, max_iter: int | None
) -> None:
    """Extract cited data tables from screened-in papers."""
    if topic is not None and not topic.strip():
        raise ConfigError("--topic is empty")
    pipe = _open(ctx, extraction_max_iter=max_iter)
    if template_path is not None:
        pipe.store_template(load_template(template_path))
    pipe.stage_extract(pipe.load_stored_template(), topic)
    click.echo("extract stage complete")


@main.command()
@click.option("--seed", type=int, default=None, help="Override analysis.seed.")
@click.pass_context
def analyze(ctx: click.Context, seed: int | None) -> None:
    """Merge accepted tables and run the analysis toolkit."""
    _open(ctx, analysis_seed=seed).stage_analyze(force=True)
    click.echo("analyze stage complete")


@main.command()
@click.pass_context
def report(ctx: click.Context) -> None:
    """Render the final Markdown report."""
    pipe = _open(ctx)
    pipe.stage_report(force=True)
    click.echo(str(pipe.ws.report_path))


@main.command("eval-extraction")
@click.option(
    "--gold", "gold_path", type=click.Path(path_type=Path, exists=True), required=True,
    help="Gold data points, one JSON record per line.",
)
@click.option("--abs-tol", type=float, default=None)
@click.option("--rel-tol", type=float, default=None, help="Overrides the per-level default.")
@click.pass_context
def eval_extraction(
    ctx: click.Context, gold_path: Path, abs_tol: float | None, rel_tol: float | None
) -> None:
    """Hit rate of extracted values against gold data points, per level."""
    pipe = _open(ctx)
    config = pipe.config
    gold = evaluation.load_gold(gold_path)
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
            abs_tol=abs_tol if abs_tol is not None else config.eval_abs_tol,
            rel_tol=rel_tol if rel_tol is not None else evaluation.default_rel_tol(level, config),
        )
    ]
    levels = evaluation.aggregate(results)
    click.echo("| Level | Docs | Mean hit rate |")
    click.echo("| --- | --- | --- |")
    for level in sorted(levels):
        count = sum(1 for r in results if r.level == level)
        click.echo(f"| {level} | {count} | {levels[level]:.4f} |")


@main.command()
@click.option(
    "--template", "template_path", type=click.Path(path_type=Path, exists=True),
    default=None, help="Extraction template (stored in the workspace on first run).",
)
@click.pass_context
def run(ctx: click.Context, template_path: Path | None) -> None:
    """Run every remaining stage through to the report."""
    pipe = _open(ctx)
    columns = load_template(template_path) if template_path is not None else None
    summary = pipe.run(columns)
    click.echo(f"documents:       {summary.total_docs}")
    click.echo(f"packed:          {summary.packed}")
    click.echo(f"reviewed:        {summary.reviewed} ({summary.review_failures} failed)")
    click.echo(f"screened in:     {summary.screened_in}")
    click.echo(f"extracted:       {summary.extracted}")
    click.echo(f"accepted tables: {summary.accepted}")
    click.echo(f"merged rows:     {summary.merged_rows}")
    if summary.report_path:
        click.echo(f"report:          {summary.report_path}")


@main.command()
@click.pass_context
def resume(ctx: click.Context) -> None:
    """Continue an interrupted run from the manifest."""
    ctx.invoke(run, template_path=None)


@main.command()
@click.pass_context
def status(ctx: click.Context) -> None:
    """Show the per-document stage matrix."""
    click.echo(status_text(Workspace.load(ctx.obj["workspace_path"])), nl=False)
