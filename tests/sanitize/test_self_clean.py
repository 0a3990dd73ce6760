"""The gate behind CI: the shipped source tree sanitizes clean.

This is the analyzer applied to its own repository -- the acceptance
criterion of the sanitize milestone.  If a change to ``src/`` introduces
an unseeded generator, a fork hazard, a raw builtin raise or schema
drift, this test (and the CI sanitize job) is what fails.
"""


class TestSelfClean:
    def test_source_tree_has_no_findings(self, src_model):
        report = src_model.sanitize
        assert report.diagnostics == [], report.format_text()
        assert report.exit_code == 0

    def test_analysis_actually_covered_the_tree(self, src_model):
        """Guard against the gate passing vacuously (empty file set)."""
        report = src_model.sanitize
        assert report.files >= 90
        assert report.suppressed == 0  # nothing grandfathered either
