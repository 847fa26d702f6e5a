"""Smoke and shape tests for the experiment suite (at tiny scale)."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.analysis_figures import ablation_link_policy, lemmas_table
from repro.experiments.config import (ExperimentConfig, default_config,
                                      paper_config, smoke_config)
from repro.experiments.diversify_figures import fig9_div_scale
from repro.experiments.figures import merge_seed_rows, ripple_levels
from repro.experiments.__main__ import main
from repro.experiments.runner import Row, print_rows, rows_to_series
from repro.experiments.skyline_figures import fig7_skyline_scale
from repro.experiments.topk_figures import fig4_topk_scale, fig6_topk_k

RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.fixture(scope="module")
def tiny():
    return smoke_config().scaled(
        sizes=(2 ** 5, 2 ** 6), queries=2, network_seeds=(7,),
        nba_tuples=1500, mirflickr_tuples=800, synth_tuples=1200,
        default_size=2 ** 5, div_sizes=(2 ** 4, 2 ** 5), div_k=4,
        div_queries=1, div_max_iters=2)


class TestConfig:
    def test_defaults_cover_paper_grid_shape(self):
        paper = paper_config()
        assert paper.sizes[0] == 2 ** 10 and paper.sizes[-1] == 2 ** 17
        assert paper.dims == tuple(range(2, 11))
        assert paper.default_k == 10
        assert paper.default_lambda == 0.5

    def test_scaled_override(self):
        config = default_config().scaled(queries=3)
        assert config.queries == 3

    def test_ripple_levels(self):
        levels = dict(ripple_levels(12))
        assert levels["r=0"] == 0
        assert levels["r=D/3"] == 4
        assert levels["r=2D/3"] == 8
        assert levels["r=D"] == 12


class TestRunnerHelpers:
    def make_row(self, x, method, latency):
        return Row(figure="f", x_name="x", x=x, method=method,
                   latency=latency, congestion=1.0, messages=1.0,
                   tuples_shipped=0.0, queries=1)

    def test_merge_seed_rows_averages(self):
        rows = [self.make_row(1, "m", 10.0), self.make_row(1, "m", 20.0)]
        merged = merge_seed_rows(rows)
        assert len(merged) == 1
        assert merged[0].latency == 15.0
        assert merged[0].queries == 2

    def test_rows_to_series(self):
        rows = [self.make_row(1, "a", 5.0), self.make_row(2, "a", 7.0),
                self.make_row(1, "b", 3.0)]
        series = rows_to_series(rows, "latency")
        assert series["a"] == [(1, 5.0), (2, 7.0)]

    def test_print_rows_renders(self):
        text = print_rows([self.make_row(1, "a", 5.0)])
        assert "latency" in text and "a" in text


class TestLemmasTable:
    def test_measured_equals_analytical(self):
        rows = lemmas_table(depths=(2, 3), ripple_rs=(1,))
        by_method = {}
        for row in rows:
            by_method.setdefault(row.x, {})[row.method] = row.latency
        for depth, methods in by_method.items():
            assert methods["fast (measured)"] == methods["fast (Lemma 1)"]
            assert methods["slow (measured)"] == methods["slow (Lemma 2)"]
            assert methods["ripple r=1 (measured)"] == \
                methods["ripple r=1 (Lemma 3)"]


class TestFigures:
    def test_fig4_shapes(self, tiny):
        rows = fig4_topk_scale(tiny)
        latency = rows_to_series(rows, "latency")
        assert set(latency) == {"r=0", "r=D/3", "r=2D/3", "r=D"}
        # the parallel extreme is the fastest at every size
        for (_, fast), (_, slow) in zip(latency["r=0"], latency["r=D"]):
            assert fast <= slow + 1e-9

    def test_fig6_k_grows_cost(self, tiny):
        config = tiny.scaled(ks=(2, 20))
        rows = fig6_topk_k(config)
        congestion = rows_to_series(rows, "congestion")
        for series in congestion.values():
            assert series[0][1] <= series[-1][1] + 1e-9

    def test_fig7_all_methods_present(self, tiny):
        rows = fig7_skyline_scale(tiny)
        methods = {row.method for row in rows}
        assert methods == {"ripple-fast", "ripple-slow", "dsl", "ssp"}

    def test_fig9_baseline_floods(self, tiny):
        rows = fig9_div_scale(tiny)
        congestion = rows_to_series(rows, "congestion")
        for (_, base), (_, fast) in zip(congestion["baseline"],
                                        congestion["ripple-fast"]):
            assert base >= fast

    def test_ablation_runs_both_policies(self, tiny):
        rows = ablation_link_policy(tiny)
        assert {row.method for row in rows} == {
            "random/fast", "random/slow", "boundary/fast", "boundary/slow"}


class TestCli:
    def test_clock_line_goes_to_stderr(self, capsys):
        """The wall-clock line is the one part of a run that differs from
        run to run; on stderr, it leaves stdout byte-equal to the
        recorded figure."""
        outs = []
        for _ in range(2):
            assert main(["lemmas", "--scale", "smoke"]) == 0
            captured = capsys.readouterr()
            assert re.fullmatch(r"# lemmas finished in \d+\.\ds\n",
                                captured.err)
            outs.append(captured.out)
        assert outs[0] == outs[1]
        assert outs[0] == (RESULTS / "lemmas.txt").read_text()
