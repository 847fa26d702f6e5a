"""bench_layers: host-time + simulated-cost benchmark of the RIPPLE stack.

Six seeded workloads are driven through the public API of ``repro`` and
reported as end-to-end metrics (host seconds *and* the paper's simulated
costs, always labelled which) plus, in a separate traced run, per-layer
metrics measured by timing calls into each layer's public functions from
this package's own files.  ``BENCHMARK.json`` at the repository root is
the machine-readable contract; ``README.md`` next to this file explains
the metrics, the estimator and how to read a trace.

Entry points (``python -m bench_layers ...``; ``src/`` is put on
``sys.path`` by ``__main__``)::

    --workload NAME --seed N --seconds S --trace 0|1
                                  one workload, one JSON result line
    run [--trace] [--out PATH] [--repeat N] [--record]
                                  all workloads, one child process each
    compare A.json B.json         gate run B against run A
"""
