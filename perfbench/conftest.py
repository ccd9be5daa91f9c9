"""Make the checkout's ``src/`` importable for the benchmark's own tests."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
