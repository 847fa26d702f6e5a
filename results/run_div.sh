#!/bin/bash
set -u
cd "$(dirname "$0")/.."
for fig in fig9 fig10 fig11 fig12 decreasing; do
  echo "=== $fig ($(date +%T)) ==="
  python -m repro.experiments "$fig" --scale default > "results/$fig.txt"
  echo "$fig done rc=$?"
done
