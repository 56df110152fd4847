import signal
from contextlib import contextmanager

from selfsim.params import ModelParams

#: the reference cases of the suite, one per regime: m + p > 2, = 2, < 2
SUPER = ModelParams(2.0, 0.5, 4)
CRIT = ModelParams(1.5, 0.5, 3)
SUB = ModelParams(1.2, 0.5, 3)

#: regression value of K* at SUPER, produced by find_k_star at tol_K=1e-6
#: (no analytic value exists for it)
K_STAR_SUPER = 2.5488157


@contextmanager
def alarm(seconds: int):
    """Turn a run that does not return within ``seconds`` into a
    ``TimeoutError``, so a regression fails instead of hanging the suite;
    the previous SIGALRM handler is restored on exit."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
