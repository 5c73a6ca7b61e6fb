"""AIWC characterization and suite diversity analysis."""

import dataclasses

import numpy as np
import pytest

from repro.aiwc import (
    AIWCMetrics,
    analyze,
    characterize,
    characterize_suite,
    standardize,
)
from repro.dwarfs import create


class TestCharacterize:
    def test_metrics_fields_populated(self):
        m = characterize(create("fft", "medium"))
        assert m.benchmark == "fft"
        assert m.dwarf == "Spectral Methods"
        vec = m.vector()
        assert vec.shape == (len(AIWCMetrics.NUMERIC_FIELDS),)
        assert np.isfinite(vec).all()

    def test_crc_is_serial_and_integer(self):
        m = characterize(create("crc", "large"))
        assert m.fp_fraction == 0.0
        assert m.serial_fraction > 0.9
        assert m.work_items_log == 0.0  # single chain

    def test_gem_is_fp_dense(self):
        m = characterize(create("gem", "tiny"))
        assert m.fp_fraction > 0.7
        assert m.arithmetic_intensity > 50

    def test_nw_launch_intensity_high(self):
        nw = characterize(create("nw", "large"))
        fft = characterize(create("fft", "large"))
        assert nw.launch_intensity > fft.launch_intensity

    def test_csr_memory_entropy_high(self):
        """The SpMV gather mixes patterns; srad streams."""
        csr = characterize(create("csr", "large"))
        gem = characterize(create("gem", "large"))
        assert csr.memory_entropy > gem.memory_entropy

    def test_footprint_tracks_size(self):
        tiny = characterize(create("kmeans", "tiny"))
        large = characterize(create("kmeans", "large"))
        assert large.unique_footprint_log > tiny.unique_footprint_log

    def test_suite_covers_all_benchmarks(self):
        ms = characterize_suite("large")
        assert len(ms) == 11
        assert {m.benchmark for m in ms} == {
            "kmeans", "lud", "csr", "fft", "dwt", "srad", "crc", "nw",
            "gem", "nqueens", "hmm"}

    def test_as_row(self):
        row = characterize(create("lud", "small")).as_row()
        assert row["benchmark"] == "lud"
        assert "arithmetic_intensity" in row


class TestDiversity:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze(characterize_suite("large"))

    def test_distance_matrix_properties(self, report):
        d = report.distances
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        assert (d >= 0).all()

    def test_crc_is_most_distinct(self, report):
        """The serial integer chain is unlike every other dwarf."""
        name, dist = report.most_distinct()
        assert name == "crc"
        assert dist > 2.0

    def test_spectral_methods_are_neighbours(self, report):
        """dwt and fft represent the same dwarf; they should be closer
        to each other than the suite average."""
        d = report.distance("dwt", "fft")
        mean = report.distances[np.triu_indices(len(report.names), 1)].mean()
        assert d < mean

    def test_mst_spans_suite(self, report):
        assert len(report.mst_edges) == len(report.names) - 1

    def test_mst_matches_networkx(self, report):
        """The scipy tree is the one networkx builds on the same graph."""
        nx = pytest.importorskip("networkx")
        graph = nx.Graph()
        for i, a in enumerate(report.names):
            for j in range(i + 1, len(report.names)):
                graph.add_edge(a, report.names[j],
                               weight=float(report.distances[i, j]))
        expected = tuple(sorted(
            (a, b, round(d["weight"], 3))
            for a, b, d in nx.minimum_spanning_tree(graph).edges(data=True)))
        assert report.mst_edges == expected

    def test_mst_spans_coincident_benchmarks(self):
        """A zero distance is still an edge (csgraph reads 0 as none)."""
        suite = characterize_suite("tiny")[:3]
        twin = dataclasses.replace(suite[0], benchmark="twin")
        report = analyze([*suite, twin])
        assert len(report.mst_edges) == 3
        assert (suite[0].benchmark, "twin", 0.0) in report.mst_edges \
            or ("twin", suite[0].benchmark, 0.0) in report.mst_edges

    def test_distinctiveness_rows_sorted(self, report):
        rows = report.distinctiveness_rows()
        distances = [r["distance"] for r in rows]
        assert distances == sorted(distances, reverse=True)

    def test_standardize(self):
        x = np.array([[1.0, 5.0], [3.0, 5.0]])
        z = standardize(x)
        assert np.allclose(z.mean(axis=0), 0.0)
        assert np.allclose(z[:, 1], 0.0)  # constant feature -> zeros

    def test_needs_two_benchmarks(self):
        with pytest.raises(ValueError):
            analyze([characterize(create("fft", "tiny"))])


class TestDegenerateInputs:
    """Regression tests: NaN/inf metrics must never poison the math."""

    def _metrics(self, **overrides):
        base = dict(
            benchmark="degenerate", dwarf="test",
            opcode_total=1.0, fp_fraction=0.5, arithmetic_intensity=1.0,
            work_items_log=2.0, granularity=1.0, serial_fraction=0.0,
            launch_intensity=0.0, memory_entropy=0.5,
            unique_footprint_log=3.0, branch_fraction=0.1,
        )
        base.update(overrides)
        return AIWCMetrics(**base)

    def test_vector_sanitizes_nan_and_inf(self):
        m = self._metrics(arithmetic_intensity=float("inf"),
                          memory_entropy=float("nan"),
                          granularity=float("-inf"))
        v = m.vector()
        assert np.isfinite(v).all()
        assert v[m.NUMERIC_FIELDS.index("arithmetic_intensity")] == 0.0
        assert v[m.NUMERIC_FIELDS.index("memory_entropy")] == 0.0

    def test_as_row_sanitizes(self):
        m = self._metrics(arithmetic_intensity=float("inf"))
        assert m.as_row()["arithmetic_intensity"] == 0.0

    def test_entropy_from_degenerate_weights(self):
        from repro.aiwc.metrics import pattern_entropy_from_weights
        assert pattern_entropy_from_weights([0.0, 0.0, 0.0]) == 0.0
        assert pattern_entropy_from_weights([]) == 0.0
        assert pattern_entropy_from_weights(
            [float("nan"), float("inf"), -1.0]) == 0.0
        # one finite positive weight: zero bits, not NaN
        assert pattern_entropy_from_weights(
            [float("nan"), 5.0]) == 0.0

    def test_standardize_tolerates_nonfinite_rows(self):
        degenerate = self._metrics(arithmetic_intensity=float("inf"),
                                   memory_entropy=float("nan"))
        report = analyze([degenerate,
                          self._metrics(benchmark="a"),
                          self._metrics(benchmark="b", fp_fraction=0.9)])
        assert np.isfinite(report.distances).all()
