"""Fixtures shared by the test modules."""

import pytest

from hardylab import _kernels


@pytest.fixture
def python_backend(monkeypatch):
    """The kernels on their Python-float recurrences: the three LAPACK
    handles unset and ``BACKEND`` naming them, as on an install whose numpy
    bundles no ``dpttrf``."""
    monkeypatch.setattr(_kernels, "_PTTRF", None)
    monkeypatch.setattr(_kernels, "_PTTRS", None)
    monkeypatch.setattr(_kernels, "_GTSV", None)
    monkeypatch.setattr(_kernels, "BACKEND", "python")


@pytest.fixture(params=["lapack", "python"])
def backend(request):
    """Run the kernels on each backend."""
    if request.param == "python":
        request.getfixturevalue("python_backend")
    elif _kernels.BACKEND != "lapack":
        pytest.skip("numpy bundles no LAPACK dpttrf here")
    return request.param
