"""Loads numpy with its idle OpenBLAS workers asleep.

OpenBLAS starts its worker threads when numpy loads, and an idle worker
busy-waits about 2^28 cycles before it sleeps; on a small machine that spin
takes CPU from the main thread while numpy and fusioncat load.  When numpy
is not loaded yet and the environment gives no OPENBLAS_THREAD_TIMEOUT,
this module imports numpy with that variable set to 4, the smallest timeout
OpenBLAS accepts, and removes it again once numpy has loaded: OpenBLAS reads
it only then, so child processes and any OpenBLAS copy loaded later see the
environment as it was.  The array modules (cyclotomic, fusion_ring,
modular_data) import this module before numpy.
"""

import os
import sys

if "numpy" not in sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in os.environ:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_THREAD_TIMEOUT"]
