"""Settings for every test run, under tests/ and bench/ alike.

A test run writes no bytecode, in this process or in the processes its
tests start, so it leaves no ``__pycache__`` in the checkout.  A benchmark
run after it then starts each CLI process by compiling the package, as a
fresh checkout does: with the package precompiled, ``cli_pipe`` ran
1.58-1.73 sets/s against 1.37-1.38 from a fresh checkout.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
