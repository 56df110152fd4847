"""Set-up of a workload process: import the library and shoot one orbit.

Run as ``python3 bench/warmup.py <src dir>`` from a fresh interpreter, it
prints its own set-up time in seconds.  Run as ``python3 bench/warmup.py
--reference``, it prints the time of the reference set-up instead: the
import of numpy and ``scipy.integrate`` alone, which selfsim's set-up rests
on.  ``setup_s`` comes from the ratio of the two.
"""

import sys
import time


def warm_up() -> None:
    """Import ``selfsim`` and integrate one Q3-plunge orbit."""
    import selfsim  # noqa: F401  (the import is part of set-up)
    from selfsim.integrator import OrbitTag, integrate_from_p0
    from selfsim.params import ModelParams

    orbit = integrate_from_p0(ModelParams(2.0, 0.5, 4), 8.0)
    if orbit.termination.tag is not OrbitTag.TO_Q3:
        raise RuntimeError("warm-up orbit at K = 8 did not plunge to Q3")


def reference_set_up() -> None:
    """Import numpy and ``scipy.integrate``, and nothing of selfsim."""
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401


if __name__ == "__main__":
    t0 = time.perf_counter()
    if sys.argv[1] == "--reference":
        reference_set_up()
    else:
        sys.path.insert(0, sys.argv[1])
        warm_up()
    print(time.perf_counter() - t0)
