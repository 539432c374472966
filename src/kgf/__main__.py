"""``python -m kgf`` and the ``kgf`` console script: the command-line interface
with numpy's BLAS limited to one thread unless the user says otherwise, and
the heap its imports leave frozen out of the garbage collector.

No kgf computation uses BLAS threads.  The sampler runs on up to two
threads (pocketfft and a draw-ahead of its Philox normals), the quadrature
passes of a D >= 2 inner product or table run on one thread per usable CPU,
and so do the checks of ``kgf verify``, with results that do not depend on
the thread count.  A threaded OpenBLAS, though, starts its pool at import
and, after the first BLAS or LAPACK call, keeps a second thread spinning
until the process exits.  The runtimes read these variables once, when they load, so
they are set before anything imports numpy.

The cyclic collector would traverse the ~22k objects that importing numpy
and the CLI leaves, in ~33 collections during the import and one at exit:
about 19 ms of a 140 ms ``kgf expect``.  So the collector is off during the
import, then :func:`gc.freeze` moves all it left (its cyclic garbage too,
about 0.5 MB) where no collection looks, and the collector is back on for
the command.  ``import kgf`` and in-process :func:`kgf.cli.main` callers
keep the default collector; no value depends on when collection runs.
"""

import gc
import os
import sys

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for name in _BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    gc.disable()
    try:
        from .cli import main as cli_main

        gc.freeze()
    finally:
        gc.enable()
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
