"""Test runs write no bytecode.

A `__pycache__` left under src/ would make the next benchmark run measure
cached imports instead of the compile every call pays on a fresh checkout.
This file is loaded before any test module or the package is imported.
"""

import sys

sys.dont_write_bytecode = True
