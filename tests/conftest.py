"""Puts ``perfbench/`` on the import path so tests can read its op list and frozen reports."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
