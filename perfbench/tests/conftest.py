import os
import sys

# The benchmark's modules import each other by bare name (they run as
# scripts), so the tests put the benchmark directory on the path.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
