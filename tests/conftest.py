import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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
