"""Import the package before any test module imports numpy.

The package is then what loads numpy, so OpenBLAS starts on one thread unless
the caller set one of its thread variables (robust_overparam/__init__.py), and
the suite's unpinned library calls and in-test references run on the CLI's
thread count.
"""
import robust_overparam  # noqa: F401
