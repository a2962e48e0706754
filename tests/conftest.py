"""Session set-up for the test suite.

The GP's small factorizations run about twice as slow with OpenBLAS's
default thread count on a two-core machine, so the suite pins OpenBLAS to
one thread unless the environment already chooses. OpenBLAS reads the
variable when numpy is first imported, which happens after this file loads.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
