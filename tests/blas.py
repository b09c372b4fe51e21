"""Reading and setting NumPy's OpenBLAS thread count from the tests."""

import pytest

from oscint.model import _blas_threads as blas_threads
from oscint.model import _openblas_thread_calls

needs_openblas = pytest.mark.skipif(
    _openblas_thread_calls() is None,
    reason="NumPy bundles no OpenBLAS with thread-count calls")


def blas_thread_count() -> int:
    get, _ = _openblas_thread_calls()
    return get()
