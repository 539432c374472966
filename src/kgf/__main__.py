"""``python -m kgf`` and the ``kgf`` console script: the command-line interface
with numpy's BLAS limited to one thread unless the user says otherwise.

No kgf computation uses BLAS threads.  The sampler runs on up to two
threads (pocketfft and a draw-ahead of its Philox normals), the quadrature
passes of a D >= 2 inner product or table run on one thread per usable CPU,
and so do the checks of ``kgf verify``, with results that do not depend on
the thread count.  A threaded OpenBLAS, though, starts its pool at import
and, after the first BLAS or LAPACK call, keeps a second thread spinning
until the process exits.  The runtimes read these variables once, when they load, so
they are set before anything imports numpy.
"""

import os
import sys

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for name in _BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
