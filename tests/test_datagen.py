import numpy as np
import pytest

from spcluster import spchart
from spcluster.datagen import GenSpec, generate_chart
from spcluster.spchart import ChartType


class TestGenerate:
    def test_deterministic(self):
        spec = GenSpec(ChartType.TEST, students=50, problems=12, seed=7, noise=0.05)
        a = generate_chart(spec)
        b = generate_chart(spec)
        assert a == b

    def test_drill_classifies_as_drill(self):
        chart = generate_chart(GenSpec(ChartType.DRILL, 200, 20, seed=3))
        assert spchart.classify_type(chart) is ChartType.DRILL

    def test_pretest_classifies_as_pretest(self):
        chart = generate_chart(GenSpec(ChartType.PRETEST, 200, 20, seed=3))
        assert spchart.classify_type(chart) is ChartType.PRETEST

    def test_test_mean_rate_near_half(self):
        means = []
        for seed in range(100):
            chart = generate_chart(GenSpec(ChartType.TEST, 400, 10, seed=seed))
            means.append(chart.bits.mean())
        assert abs(np.mean(means) - 0.5) < 0.05

    def test_output_is_valid_chart(self):
        chart = generate_chart(GenSpec(ChartType.TEST, 9, 4, seed=1, noise=0.2))
        assert chart.num_students == 9
        assert chart.num_problems == 4
        assert np.isin(chart.bits, (0, 1)).all()
        assert len(set(chart.student_ids)) == 9

    def test_bare_cells_read_back_equal(self):
        # written without the label column and header, the chart's ids are
        # regenerated by the reader's own rule, which names generated charts
        chart = generate_chart(GenSpec(ChartType.TEST, 30, 7, seed=2, noise=0.1))
        bare = "".join(",".join(map(str, row)) + "\n" for row in chart.bits.tolist())
        read = spchart.parse_chart(bare)
        assert read == chart
        assert read.student_ids == tuple(f"S{i}" for i in range(1, 31))
        assert read.problem_ids == tuple(f"P{j}" for j in range(1, 8))

    def test_noise_changes_cells(self):
        clean = generate_chart(GenSpec(ChartType.TEST, 100, 10, seed=5, noise=0.0))
        noisy = generate_chart(GenSpec(ChartType.TEST, 100, 10, seed=5, noise=0.3))
        assert not np.array_equal(clean.bits, noisy.bits)

    @pytest.mark.parametrize("chart_type", list(ChartType))
    def test_type_agreement_rate(self, chart_type):
        hits = 0
        for seed in range(100):
            chart = generate_chart(GenSpec(chart_type, 100, 10, seed=seed, noise=0.1))
            hits += spchart.classify_type(chart) is chart_type
        assert hits >= 95

    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec(ChartType.TEST, 0, 5, seed=0)
        with pytest.raises(ValueError):
            GenSpec(ChartType.TEST, 5, 0, seed=0)
        with pytest.raises(ValueError):
            GenSpec(ChartType.TEST, 5, 5, seed=0, noise=0.9)
        with pytest.raises(ValueError):
            GenSpec(ChartType.TEST, 5, 5, seed=-1)
