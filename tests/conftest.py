import signal
from contextlib import contextmanager


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
