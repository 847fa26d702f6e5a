"""Command-line entry point for regenerating the paper's figures.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig4 [--scale smoke|default]
    python -m repro.experiments all --scale smoke

Each figure prints one aligned table per metric (latency in hops,
congestion in peers per query), with one column per method — the series
the paper plots.  ``--scale paper`` selects the full Table 1 grid, which
takes hours; ``default`` (the setting used for EXPERIMENTS.md) keeps the
same code paths at laptop scale.
"""

from __future__ import annotations

import argparse
import sys

from .analysis_figures import (ablation_link_policy, decreasing_stage,
                               lemmas_table)
from .config import default_config, paper_config, smoke_config
from .diversify_figures import (fig10_div_dims, fig11_div_k,
                                fig12_div_lambda, fig9_div_scale)
from .runner import _wallclock, ascii_chart, print_rows, rows_to_csv
from .skyline_figures import fig7_skyline_scale, fig8_skyline_dims
from .topk_figures import fig4_topk_scale, fig5_topk_dims, fig6_topk_k

FIGURES = {
    "fig4": (fig4_topk_scale, "top-k vs overlay size (NBA)"),
    "fig5": (fig5_topk_dims, "top-k vs dimensionality (SYNTH)"),
    "fig6": (fig6_topk_k, "top-k vs result size (NBA)"),
    "fig7": (fig7_skyline_scale, "skyline vs overlay size (NBA)"),
    "fig8": (fig8_skyline_dims, "skyline vs dimensionality (SYNTH)"),
    "fig9": (fig9_div_scale, "diversification vs overlay size (MIRFLICKR)"),
    "fig10": (fig10_div_dims, "diversification vs dimensionality (SYNTH)"),
    "fig11": (fig11_div_k, "diversification vs result size (MIRFLICKR)"),
    "fig12": (fig12_div_lambda, "diversification vs lambda (MIRFLICKR)"),
}

SCALES = {"smoke": smoke_config, "default": default_config,
          "paper": paper_config}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument("figure",
                        choices=[*FIGURES, "lemmas", "ablation",
                                 "decreasing", "load", "scale", "all",
                                 "list"])
    parser.add_argument("--scale", choices=list(SCALES), default="default")
    parser.add_argument("--csv", metavar="PATH",
                        help="also write the rows as CSV to PATH")
    parser.add_argument("--chart", action="store_true",
                        help="render ASCII charts after the tables")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="record one representative query of the "
                             "figure's family with a trace sink attached "
                             "and export it (.jsonl = JSONL record stream, "
                             "anything else = Perfetto trace_event JSON)")
    args = parser.parse_args(argv)

    if args.figure == "list":
        for name, (_, description) in FIGURES.items():
            print(f"{name:8s} {description}")
        print("lemmas   worst-case latency: measured vs Lemmas 1-3")
        print("ablation Section 5.2 link policy: random vs boundary")
        print("decreasing  top-k during the decreasing (departure) stage")
        print("load     concurrent engine: p50/p99/shedding vs arrival rate")
        print("scale    Lemma 1-3 latency at 10k-1M peers (arena substrate)")
        return 0

    config = SCALES[args.scale]()
    targets = (list(FIGURES) + ["lemmas", "ablation", "decreasing", "load",
                                "scale"]
               if args.figure == "all" else [args.figure])
    for target in targets:
        start = _wallclock()
        if target == "lemmas":
            print_rows(lemmas_table(), metrics=("latency",))
        elif target == "ablation":
            print_rows(ablation_link_policy(config),
                       metrics=("latency", "congestion", "tuples_shipped"))
        elif target == "decreasing":
            rows = decreasing_stage(config)
            print_rows(rows)
            _extras(rows, args)
        elif target == "load":
            from .load_profile import load_profile, print_load_rows
            print_load_rows(load_profile(config))
        elif target == "scale":
            from .scale_profile import print_scale_rows, scale_profile
            print_scale_rows(scale_profile(config))
        else:
            figure, _ = FIGURES[target]
            rows = figure(config)
            print_rows(rows)
            _extras(rows, args)
        print(f"# {target} finished in {_wallclock() - start:.1f}s\n")
    if args.trace_out:
        from .tracing import trace_figure
        trace_figure(targets[-1], config, args.trace_out)
    return 0


def _extras(rows: list[dict[str, object]], args: argparse.Namespace) -> None:
    if args.csv:
        rows_to_csv(rows, args.csv)
    if args.chart:
        for metric in ("latency", "congestion"):
            print(ascii_chart(rows, metric))
            print()


if __name__ == "__main__":
    sys.exit(main())
