"""Span-tree reconstruction and the ``repro stats`` renderings.

A trace is a flat JSONL stream; this module rebuilds the span tree
(spans are written post-order, children before parents, so the builder
is order-independent), checks its well-formedness, and renders the
human and ``--json`` outputs of ``repro stats``: the aggregated tree,
the slowest individual spans, per-name timer summaries, and the
adversary-domain event tables (per-block special-set sizes, Lemma 4.1
collision histograms, renaming counts).

Well-formedness means: no duplicate span ids, no record whose ``parent``
references a span id that never closed (a crashed span never writes its
record, so its descendants dangle -- exactly the signal we want), and
every child span's wall interval contained in its parent's (checked
only for same-pid pairs, with a small tolerance, to dodge cross-process
clock skew on merged farm traces).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from .events import (
    EV_NODE,
    EV_RHO,
    EV_SERVE_CACHE,
    EV_SERVE_REJECT,
    EV_SETS,
    EV_SUMMARY,
)
from .metrics import MetricsAggregator, percentile

__all__ = [
    "SpanNode",
    "build_tree",
    "well_formedness_problems",
    "render_tree",
    "slowest_spans",
    "adversary_summary",
    "serve_summary",
    "stats_json",
    "render_stats",
    "timing_aggregates",
]

#: Tolerance for parent/child interval containment (clock granularity).
_CONTAIN_EPS = 0.005


@dataclass
class SpanNode:
    """One span plus its child spans (events are counted, not attached)."""

    record: dict[str, Any]
    children: "list[SpanNode]" = field(default_factory=list)

    @property
    def name(self) -> str:
        """The span's name (``?`` when the record is missing one)."""
        return self.record.get("name", "?")

    @property
    def dur(self) -> float:
        """The span's measured duration in seconds."""
        return float(self.record.get("dur", 0.0))


def build_tree(records: "list[dict[str, Any]]") -> "list[SpanNode]":
    """Rebuild the span forest; orphaned spans become extra roots."""
    nodes: dict[str, SpanNode] = {}
    for record in records:
        if record.get("type") == "span":
            nodes[record["id"]] = SpanNode(record)
    roots: list[SpanNode] = []
    for node in nodes.values():
        parent = node.record.get("parent")
        if parent is not None and parent in nodes:
            nodes[parent].children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda c: c.record.get("ts", 0.0))
    roots.sort(key=lambda r: r.record.get("ts", 0.0))
    return roots


def well_formedness_problems(records: "list[dict[str, Any]]") -> "list[str]":
    """All structural violations, empty when the trace is well-formed."""
    problems: list[str] = []
    spans: dict[str, dict[str, Any]] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        sid = record.get("id")
        if sid in spans:
            problems.append(f"duplicate span id {sid!r}")
        else:
            spans[sid] = record
    for record in records:
        parent = record.get("parent")
        if parent is None:
            continue
        if parent not in spans:
            what = record.get("type"), record.get("name")
            problems.append(
                f"{what[0]} {what[1]!r} references unclosed/unknown "
                f"parent span {parent!r}"
            )
            continue
        if record.get("type") == "span":
            pr = spans[parent]
            if record.get("pid") != pr.get("pid"):
                continue  # cross-process: clocks not comparable
            start, end = record["ts"], record["ts"] + record["dur"]
            pstart, pend = pr["ts"], pr["ts"] + pr["dur"]
            if start < pstart - _CONTAIN_EPS or end > pend + _CONTAIN_EPS:
                problems.append(
                    f"span {record['id']!r} ({record['name']}) "
                    f"[{start:.6f}, {end:.6f}] escapes parent "
                    f"{parent!r} [{pstart:.6f}, {pend:.6f}]"
                )
    return problems


def _render_group(
    nodes: "list[SpanNode]", lines: "list[str]", depth: int, max_depth: int
) -> None:
    """Render siblings aggregated by name: count, total and max duration."""
    groups: dict[str, list[SpanNode]] = defaultdict(list)
    for node in nodes:
        groups[node.name].append(node)
    indent = "  " * depth
    for name in sorted(groups, key=lambda n: -sum(x.dur for x in groups[n])):
        members = groups[name]
        total = sum(node.dur for node in members)
        errors = sum(
            1 for node in members if node.record.get("status") != "ok"
        )
        line = f"{indent}{name}"
        if len(members) > 1:
            line += f"  x{len(members)}"
        line += f"  total {total:.4f}s"
        if len(members) > 1:
            line += f"  max {max(node.dur for node in members):.4f}s"
        if errors:
            line += f"  ({errors} errors)"
        lines.append(line)
        children = [child for node in members for child in node.children]
        if children and depth + 1 < max_depth:
            _render_group(children, lines, depth + 1, max_depth)


def render_tree(records: "list[dict[str, Any]]", *, max_depth: int = 12) -> str:
    """The aggregated span tree (repeated siblings collapsed by name)."""
    roots = build_tree(records)
    if not roots:
        return "(no spans)"
    lines: list[str] = []
    _render_group(roots, lines, 0, max_depth)
    return "\n".join(lines)


def slowest_spans(
    records: "list[dict[str, Any]]", top: int = 10
) -> "list[dict[str, Any]]":
    """The ``top`` individual spans by duration."""
    spans = [r for r in records if r.get("type") == "span"]
    spans.sort(key=lambda r: -float(r.get("dur", 0.0)))
    return [
        {
            "name": r["name"],
            "id": r["id"],
            "dur": float(r.get("dur", 0.0)),
            "status": r.get("status"),
            "attrs": r.get("attrs") or {},
        }
        for r in spans[:top]
    ]


def _numeric_key(item: "tuple[str, int]") -> "tuple[bool, int, str]":
    """Sort histogram keys as integers, non-numeric keys (``"?"``) last."""
    key = item[0]
    numeric = key.lstrip("-").isdigit()
    return (not numeric, int(key) if numeric else 0, key)


def adversary_summary(records: "list[dict[str, Any]]") -> dict[str, Any]:
    """Fold the adversary-domain events into compact tables.

    Returns ``blocks`` (one row per ``adversary.sets`` event), ``nodes``
    (Lemma 4.1 node aggregates: collision histogram, per-shift choices,
    demotions), and ``renamings`` (``pattern.rho`` count).
    """
    blocks: list[dict[str, Any]] = []
    histogram: dict[str, int] = defaultdict(int)
    shifts: dict[str, int] = defaultdict(int)
    nodes = 0
    collisions = 0
    demoted = 0
    renamings = 0
    summaries: list[dict[str, Any]] = []
    for record in records:
        if record.get("type") != "event":
            continue
        name = record.get("name")
        attrs = record.get("attrs") or {}
        if name == EV_SETS:
            blocks.append(dict(attrs))
        elif name == EV_NODE:
            nodes += 1
            collisions += int(attrs.get("collisions", 0))
            demoted += int(attrs.get("demoted", 0))
            shifts[str(attrs.get("shift", "?"))] += 1
            for size, count in (attrs.get("histogram") or {}).items():
                histogram[str(size)] += int(count)
        elif name == EV_RHO:
            renamings += 1
        elif name == EV_SUMMARY:
            summaries.append(dict(attrs))
    blocks.sort(key=lambda row: row.get("block", 0))
    return {
        "blocks": blocks,
        "nodes": {
            "count": nodes,
            "collisions": collisions,
            "demoted": demoted,
            "collision_set_histogram": dict(
                sorted(histogram.items(), key=_numeric_key)
            ),
            "chosen_shifts": dict(sorted(shifts.items(), key=_numeric_key)),
        },
        "renamings": renamings,
        "lemma41_runs": summaries,
    }


def serve_summary(records: "list[dict[str, Any]]") -> dict[str, Any]:
    """Fold the certificate-service events into the cache-hit table.

    Returns ``requests`` (count of ``serve.request`` spans), ``by_source``
    (``serve.cache`` event counts keyed by memory/store/joined/computed),
    ``hit_rate`` (fraction answered without recomputation), and
    ``rejected`` (``serve.reject`` counts keyed by reason).
    """
    by_source: dict[str, int] = defaultdict(int)
    rejected: dict[str, int] = defaultdict(int)
    requests = 0
    for record in records:
        rtype, name = record.get("type"), record.get("name")
        attrs = record.get("attrs") or {}
        if rtype == "span" and name == "serve.request":
            requests += 1
        elif rtype == "event" and name == EV_SERVE_CACHE:
            by_source[str(attrs.get("source", "?"))] += 1
        elif rtype == "event" and name == EV_SERVE_REJECT:
            rejected[str(attrs.get("reason", "?"))] += 1
    lookups = sum(by_source.values())
    warm = sum(
        count for source, count in by_source.items()
        if source in ("memory", "store", "joined")
    )
    return {
        "requests": requests,
        "by_source": dict(sorted(by_source.items())),
        "hit_rate": (warm / lookups) if lookups else 0.0,
        "rejected": dict(sorted(rejected.items())),
    }


def stats_json(
    records: "list[dict[str, Any]]", *, top: int = 10
) -> dict[str, Any]:
    """The machine-readable ``repro stats --json`` document."""
    aggregator = MetricsAggregator().add_all(records)
    problems = well_formedness_problems(records)
    return {
        "records": len(records),
        "well_formed": not problems,
        "problems": problems,
        "spans": aggregator.span_summary(),
        "events": dict(sorted(aggregator.events.items())),
        "counters": dict(sorted(aggregator.counters.items())),
        "gauges": {k: dict(v) for k, v in sorted(aggregator.gauges.items())},
        "slowest": slowest_spans(records, top=top),
        "adversary": adversary_summary(records),
        "serve": serve_summary(records),
    }


def _format_block_table(blocks: "list[dict[str, Any]]") -> "list[str]":
    lines = [
        f"{'block':>5} {'entering':>9} {'union':>7} {'survivor':>9} "
        f"{'sets':>5}  sizes"
    ]
    for row in blocks:
        sizes = row.get("sizes") or []
        shown = ",".join(str(s) for s in sizes[:8])
        if len(sizes) > 8:
            shown += f",... ({len(sizes)} sets)"
        lines.append(
            f"{row.get('block', '?'):>5} {row.get('entering', '?'):>9} "
            f"{row.get('union', '?'):>7} {row.get('survivor', '?'):>9} "
            f"{row.get('sets', '?'):>5}  [{shown}]"
        )
    return lines


def render_stats(records: "list[dict[str, Any]]", *, top: int = 10) -> str:
    """The human ``repro stats`` rendering."""
    doc = stats_json(records, top=top)
    lines: list[str] = []
    lines.append(f"trace: {doc['records']} records")
    if doc["well_formed"]:
        lines.append("span tree: well-formed")
    else:
        lines.append(f"span tree: MALFORMED ({len(doc['problems'])} problems)")
        for problem in doc["problems"][:20]:
            lines.append(f"  ! {problem}")
    lines.append("")
    lines.append("-- span tree " + "-" * 47)
    lines.append(render_tree(records))
    if doc["slowest"]:
        lines.append("")
        lines.append(f"-- slowest spans (top {top}) " + "-" * 32)
        for row in doc["slowest"]:
            mark = "" if row["status"] == "ok" else f"  [{row['status']}]"
            lines.append(f"  {row['dur']:.4f}s  {row['name']} ({row['id']}){mark}")
    timers = doc["spans"]
    if timers:
        lines.append("")
        lines.append("-- timers " + "-" * 50)
        lines.append(
            f"{'span':<22}{'count':>6}{'total':>10}{'p50':>10}"
            f"{'p99':>10}{'max':>10}"
        )
        for name, row in timers.items():
            lines.append(
                f"{name:<22}{row['count']:>6}{row['total']:>10.4f}"
                f"{row['p50']:>10.4f}{row['p99']:>10.4f}{row['max']:>10.4f}"
            )
    adversary = doc["adversary"]
    if adversary["blocks"]:
        lines.append("")
        lines.append("-- adversary: special sets per block " + "-" * 23)
        lines.extend(_format_block_table(adversary["blocks"]))
    nodes = adversary["nodes"]
    if nodes["count"]:
        lines.append("")
        lines.append("-- adversary: Lemma 4.1 nodes " + "-" * 30)
        lines.append(
            f"  {nodes['count']} nodes, {nodes['collisions']} collisions, "
            f"{nodes['demoted']} demoted, {adversary['renamings']} renamings"
        )
        if nodes["collision_set_histogram"]:
            hist = ", ".join(
                f"|C|={size}: {count}"
                for size, count in nodes["collision_set_histogram"].items()
            )
            lines.append(f"  collision-set sizes: {hist}")
        if nodes["chosen_shifts"]:
            shifts = ", ".join(
                f"i0={shift}: {count}"
                for shift, count in nodes["chosen_shifts"].items()
            )
            lines.append(f"  chosen shifts: {shifts}")
    serve = doc["serve"]
    if serve["requests"] or serve["by_source"] or serve["rejected"]:
        lines.append("")
        lines.append("-- certificate service " + "-" * 37)
        sources = ", ".join(
            f"{source}: {count}"
            for source, count in serve["by_source"].items()
        ) or "none"
        lines.append(
            f"  {serve['requests']} requests, cache hit rate "
            f"{serve['hit_rate'] * 100:.1f}%  ({sources})"
        )
        if serve["rejected"]:
            shed = ", ".join(
                f"{reason}: {count}"
                for reason, count in serve["rejected"].items()
            )
            lines.append(f"  rejected: {shed}")
    if doc["events"]:
        lines.append("")
        lines.append("-- events " + "-" * 50)
        for name, count in doc["events"].items():
            lines.append(f"  {name}: {count}")
    return "\n".join(lines)


def timing_aggregates(values: "list[float]") -> dict[str, float]:
    """p50/p95/max/total for a duration list (farm status helper)."""
    return {
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "max": max(values) if values else 0.0,
        "total": sum(values),
    }
