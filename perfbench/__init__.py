"""Benchmark harness for the mpbnn package; see README.md in this directory."""

# Thread-count variables of the BLAS builds numpy may load.  `run.py` sets
# each to 1 before numpy is imported.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
