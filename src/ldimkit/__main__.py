import os
import sys

# ldimkit makes no BLAS call: load numpy without OpenBLAS's worker thread.
# Set on import, not under the __name__ check: the `ldimkit` script
# imports run from here.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402


def run() -> None:
    """End the process with ``main()``'s exit code, skipping CPython's
    teardown of numpy's and ldimkit's modules (about 20 ms per command)
    once stdout and stderr are flushed: every file a command writes is
    closed before ``main()`` returns.  Teardown still runs, through
    ``sys.exit``, when a flush fails, so that a lost write keeps CPython's
    report and exit status 120 (any failure: a closed descriptor leaves
    ``sys.stdout`` None, which teardown skips), and under a profiler or
    tracer, whose report is written at exit."""
    code = main()
    if sys.getprofile() is None and sys.gettrace() is None:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
