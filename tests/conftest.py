import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from restock import valuation

settings.register_profile(
    "restock",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("restock")


@pytest.fixture
def fft_lengths(monkeypatch):
    """The length argument of every ``np.fft.rfft`` and ``np.fft.irfft`` call
    the test makes, in call order."""
    lengths = []

    def counted(transform):
        def call(a, n=None, *args, **kwargs):
            lengths.append(n)
            return transform(a, n, *args, **kwargs)

        return call

    monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft))
    return lengths


@pytest.fixture
def pmf_products(monkeypatch):
    """Counts, in ``made``, the multiplications of every pmf value the
    series walk starts from and of each value derived from it: one or two a
    walked term.  Past ``most``, set by the test, the next one raises, so a
    walk that is too long fails fast."""
    counts = SimpleNamespace(made=0, most=math.inf)

    class Counted(float):
        def __mul__(self, other):
            counts.made += 1
            if counts.made > counts.most:
                raise AssertionError(f"the walk took more than {counts.most:.0f} pmf products")
            return Counted(float(self) * other)

    pmf = valuation._pmf
    monkeypatch.setattr(valuation, "_pmf", lambda j, lam: Counted(pmf(j, lam)))
    return counts
