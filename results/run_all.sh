#!/bin/bash
# Regenerates every figure at the default (laptop) scale and records the
# series used by EXPERIMENTS.md.  fig8 runs through results/run_fig8.py
# (reduced repetition: its 6-d point has a 2,774-tuple skyline, which the
# DSL competitor ships along every hierarchy edge).
set -u
cd "$(dirname "$0")/.."
for fig in fig4 fig5 fig6 lemmas ablation fig7 fig9 fig10 fig11 fig12 decreasing; do
  echo "=== $fig ($(date +%T)) ==="
  python -m repro.experiments "$fig" --scale default > "results/$fig.txt"
  echo "$fig done rc=$?"
done
echo "=== fig8 ($(date +%T)) ==="
python results/run_fig8.py > results/fig8.txt
echo "fig8 done rc=$?"
