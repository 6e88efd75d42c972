"""Setup for the whole test run, loaded before any test module imports numpy.

The report digests in test_cli.py were recorded with OpenBLAS on two
threads, and the dense eigensolver's last digits depend on the thread
count, so the tests pin it to two whatever the outer environment sets.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_name] = "2"
