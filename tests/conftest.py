import numpy as np
import pytest

from tempderiv import FourCoeffs, GammaTimeChange, ModelParams


# the model of the README's quick start and of the benchmark's configs
README_MODEL = ModelParams(alpha=0.25, t0=12.0, seasonal=FourCoeffs(12.0, 0.0008, -5.9, -4.0),
                           vol=FourCoeffs(3.5, 0.0, 0.5, 1.0),
                           timechange=GammaTimeChange(1.5, 1.0, 0.3))


@pytest.fixture
def toronto_like_model() -> ModelParams:
    """Parameters in the range a Toronto-style daily series produces."""
    return ModelParams(
        alpha=0.25,
        t0=-3.0,
        seasonal=FourCoeffs(8.0, 0.0008, -5.9, -12.9),
        vol=FourCoeffs(3.5, 0.0, 0.5, 1.0),
        timechange=GammaTimeChange(1.5, 1.0, 0.3),
    )


@pytest.fixture
def gaussian_limit_model() -> ModelParams:
    """a = b = 1e6 degenerates the clock to R_t = t (Brownian noise)."""
    return ModelParams(
        alpha=0.25,
        t0=-2.0,
        seasonal=FourCoeffs(6.0, 0.0005, -4.0, -9.0),
        vol=FourCoeffs(1.0, 0.0, 0.1, 0.1),
        timechange=GammaTimeChange(1e6, 1e6, 0.3),
    )


def random_model(rng: np.random.Generator, horizon: float = 730.0) -> ModelParams:
    """Draw a model with positive volatility and moderate mean reversion."""
    c0 = rng.uniform(1.0, 4.0)
    vol = FourCoeffs(c0, rng.uniform(0, 1e-3), rng.uniform(-0.2, 0.2) * c0,
                     rng.uniform(-0.2, 0.2) * c0)
    seasonal = FourCoeffs(rng.uniform(-5, 15), rng.uniform(-1e-3, 1e-3),
                          rng.uniform(-8, 8), rng.uniform(-14, 14))
    tc = GammaTimeChange(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0),
                         rng.uniform(-0.5, 0.5))
    return ModelParams(alpha=rng.uniform(0.08, 0.6), t0=rng.uniform(-10, 15),
                       seasonal=seasonal, vol=vol, timechange=tc, horizon=horizon)
