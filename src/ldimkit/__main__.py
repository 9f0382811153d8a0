import os
import sys

# ldimkit makes no BLAS call: load numpy without OpenBLAS's worker thread.
# Set on import, not under the __name__ check: the `ldimkit` script
# imports run from here.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402


def run() -> None:
    """End the process with ``main()``'s exit code, skipping CPython's
    teardown of numpy's and ldimkit's modules (about 20 ms per command):
    ``main()`` has flushed stdout, stderr is line-buffered, and every file
    a command writes is closed before ``main()`` returns.  Teardown still
    runs, through ``sys.exit``, under a profiler or tracer, whose report
    is written at exit."""
    code = main()
    if sys.getprofile() is None and sys.gettrace() is None:
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
