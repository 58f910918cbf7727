"""obslab: obstacle-problem solvers and free-boundary diagnostics.

Importing the package sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is
already set, so a process that imports obslab before numpy loads OpenBLAS
with no worker pool. No BLAS call in obslab is large enough for a second
thread to pay: 3x3 and 6x6 ``solve``/``eigvalsh``/``inv``, stacked
``(B, 1, m)`` products and ``grid.row_dot`` pieces of at most
``grid.ROW_PIECE`` entries. Starting the pool is not free: in
``python -X importtime`` on a 2-core host (numpy 2.4.6, OpenBLAS 0.3.31),
``numpy._core._multiarray_umath`` took 67-91 ms with the two-thread pool
and 30-31 ms at one thread (five runs each). An explicit setting wins, and
a process that loaded numpy first keeps the pool it started with.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
