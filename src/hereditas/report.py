"""Plot-ready tables from campaign reports.

TSV values are printed with 4 decimals (the tables' convention); the JSON
report keeps full precision.
"""

from __future__ import annotations

from .io import to_json
from .simulate import REPORT_METRICS, CampaignReport

_STATS = ("mean", "median", "se")


def _fmt(v) -> str:
    return "" if v is None else f"{v:.4f}"


def _table(columns: list[tuple[str, dict]]) -> str:
    """Metric-by-stat rows, one column per (label, JSON aggregates of a cell)."""
    lines = ["\t".join(["metric", "stat"] + [label for label, _ in columns])]
    for metric in REPORT_METRICS:
        for stat in _STATS:
            row = [metric, stat]
            for _, aggs in columns:
                agg = aggs.get(metric)
                row.append(_fmt(None if agg is None else agg[stat]))
            lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def campaign_tsv(report: CampaignReport) -> str:
    """Cells as columns; encodes only the cells' aggregates, not the report."""
    return _table([(f"{c.method}/{c.scheme}", to_json(c.aggregates)) for c in report.cells])


def multi_report_tsv(docs: list[dict]) -> str:
    """Rebuild the table from serialized reports.

    With several reports the columns become setting-by-cell pairs, the
    settings-as-columns layout of the experiment tables.
    """
    columns = []
    for doc in docs:
        setting = doc["config"]["name"]
        for cell in doc["cells"]:
            name = f"{cell['method']}/{cell['scheme']}"
            label = f"{setting}:{name}" if len(docs) > 1 else name
            columns.append((label, cell["aggregates"]))
    return _table(columns)


def snr_summary(report: CampaignReport) -> str:
    s = report.snr
    printed = report.config.printed_snr
    parts = [f"snr[{s.method}] = {s.value:.6g}"]
    if printed is not None:
        parts.append(f"tabulated {printed:g}")
    if report.snr_flagged:
        parts.append("FLAG: analytic value disagrees with the tabulated one by > 0.01")
    return " ".join(parts)
