"""Span-tree reconstruction, well-formedness, and stats renderings."""

import numpy as np

from repro.core.fooling import prove_not_sorting
from repro.networks.builders import bitonic_iterated_rdn
from repro.obs import (
    MemorySink,
    Tracer,
    build_tree,
    render_stats,
    render_tree,
    slowest_spans,
    stats_json,
    use_tracer,
    well_formedness_problems,
)
from repro.obs.events import SCHEMA_VERSION
from repro.obs.report import adversary_summary, timing_aggregates


def span(sid, parent=None, *, name="w", ts=0.0, dur=1.0, status="ok", pid=1):
    return {
        "v": SCHEMA_VERSION, "type": "span", "name": name, "trace": "t0",
        "parent": parent, "ts": ts, "pid": pid, "tid": 1,
        "id": sid, "dur": dur, "status": status,
    }


class TestBuildTree:
    def test_nested_structure(self):
        records = [span("s1", "s0", ts=0.1, dur=0.2), span("s0", ts=0.0, dur=1.0)]
        (root,) = build_tree(records)
        assert root.record["id"] == "s0"
        assert [c.record["id"] for c in root.children] == ["s1"]

    def test_orphans_become_roots(self):
        roots = build_tree([span("s5", "never-closed")])
        assert len(roots) == 1

    def test_children_sorted_by_start_time(self):
        records = [
            span("s2", "s0", ts=0.5, dur=0.1),
            span("s1", "s0", ts=0.1, dur=0.1),
            span("s0", ts=0.0, dur=1.0),
        ]
        (root,) = build_tree(records)
        assert [c.record["id"] for c in root.children] == ["s1", "s2"]


class TestWellFormedness:
    def test_clean_trace(self):
        assert well_formedness_problems(
            [span("s1", "s0", ts=0.2, dur=0.3), span("s0", dur=1.0)]
        ) == []

    def test_duplicate_ids_flagged(self):
        problems = well_formedness_problems([span("s0"), span("s0")])
        assert any("duplicate" in p for p in problems)

    def test_dangling_parent_flagged(self):
        problems = well_formedness_problems([span("s1", "ghost")])
        assert any("ghost" in p for p in problems)

    def test_child_escaping_parent_interval_flagged(self):
        problems = well_formedness_problems(
            [span("s1", "s0", ts=0.5, dur=2.0), span("s0", ts=0.0, dur=1.0)]
        )
        assert any("escapes" in p for p in problems)

    def test_cross_pid_intervals_not_compared(self):
        # merged farm traces: worker clocks are not comparable
        assert well_formedness_problems(
            [span("s0.s0", "s0", ts=99.0, dur=5.0, pid=2), span("s0", dur=1.0)]
        ) == []


class TestRenderings:
    def traced_records(self):
        sink = MemorySink()
        with use_tracer(Tracer(sink)):
            prove_not_sorting(
                bitonic_iterated_rdn(16).truncated(2),
                rng=np.random.default_rng(0),
            )
        return sink.records

    def test_render_tree_aggregates_siblings(self):
        out = render_tree(self.traced_records())
        assert "adversary.run" in out
        assert "adversary.block  x2" in out
        assert "lemma41.run" in out

    def test_render_tree_empty(self):
        assert render_tree([]) == "(no spans)"

    def test_slowest_spans_sorted(self):
        rows = slowest_spans(self.traced_records(), top=3)
        durs = [r["dur"] for r in rows]
        assert durs == sorted(durs, reverse=True) and len(rows) == 3

    def test_stats_json_shape(self):
        doc = stats_json(self.traced_records(), top=5)
        assert doc["well_formed"] is True
        assert doc["adversary"]["blocks"]
        assert doc["adversary"]["nodes"]["count"] > 0
        assert "adversary.run" in doc["spans"]
        assert doc["events"]["adversary.sets"] == 2

    def test_render_stats_sections(self):
        out = render_stats(self.traced_records(), top=5)
        assert "span tree: well-formed" in out
        assert "special sets per block" in out
        assert "Lemma 4.1 nodes" in out

    def test_render_stats_flags_malformed(self):
        out = render_stats([span("s0"), span("s0")])
        assert "MALFORMED" in out


class TestAdversarySummary:
    def test_blocks_sorted_and_nodes_counted(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.event("adversary.sets", block=1, survivor=4)
        tracer.event("adversary.sets", block=0, survivor=8)
        tracer.event("lemma41.node", collisions=2, shift=1,
                     histogram={"4": 1}, demoted=1)
        tracer.event("pattern.rho", index=0)
        doc = adversary_summary(sink.records)
        assert [row["block"] for row in doc["blocks"]] == [0, 1]
        assert doc["nodes"]["count"] == 1
        assert doc["nodes"]["collisions"] == 2
        assert doc["nodes"]["collision_set_histogram"] == {"4": 1}
        assert doc["renamings"] == 1

    def test_chosen_shifts_sort_numerically_unknown_last(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        for shift in (10, None, 2, 10):
            attrs = {} if shift is None else {"shift": shift}
            tracer.event("lemma41.node", collisions=0, histogram={}, **attrs)
        doc = adversary_summary(sink.records)
        shifts = doc["nodes"]["chosen_shifts"]
        assert list(shifts.items()) == [("2", 1), ("10", 2), ("?", 1)]
        out = render_stats(sink.records)
        assert out.index("i0=2:") < out.index("i0=10:") < out.index("i0=?:")


class TestTimingAggregates:
    def test_empty(self):
        doc = timing_aggregates([])
        assert doc == {"p50": 0.0, "p95": 0.0, "max": 0.0, "total": 0.0}

    def test_values(self):
        doc = timing_aggregates([1.0, 2.0, 3.0])
        assert doc["p50"] == 2.0 and doc["max"] == 3.0 and doc["total"] == 6.0
