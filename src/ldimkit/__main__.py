import os
import sys

# ldimkit makes no BLAS call: load numpy without OpenBLAS's worker thread.
# Set on import, not under the __name__ check: the `ldimkit` script
# imports main from here.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
