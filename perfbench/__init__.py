"""The repository's benchmark: two seeded workloads and a traced run.

Run one workload with::

    python3 perfbench/run.py --workload update_stream --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  See ``perfbench/README.md`` for what each workload measures.
"""

#: Native thread-pool variables; the launcher pins each to one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
