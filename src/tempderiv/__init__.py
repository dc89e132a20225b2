"""Temperature derivatives under a mean-reverting Gamma-time-changed model.

Library layout:

- `seasonal`  : seasonal mean/volatility functions and exponential-kernel integrals
- `charfun`   : cumulant exponents and characteristic functions (spot and CAT)
- `esscher`   : martingale-measure selection by exponential tilting
- `cosine`    : Fourier-cosine density recovery and strangle pricing
- `simulate`  : moment-matched path simulation and Monte Carlo oracles
- `data`      : CSV ingestion, repair, descriptive statistics
- `calibrate` : seasonal OLS, mean-reversion and time-change estimation
- `cli`       : batch command line (fit / price / simulate / density / stats)
"""

from .calibrate import (AlphaFit, FitReport, TimeChangeFit, fit_alpha, fit_seasonal,
                        fit_timechange, innovations)
from .charfun import (GammaTimeChange, ModelParams, a1, cat_cumulants, charfun_T,
                      charfun_cat, transformed_timechange, v_cumulants)
from .cosine import (ContractSpec, CosGrid, PricingWarning, StrangleQuote, cos_coefficients,
                     density_from_charfun, price_strangle, truncation_bounds)
from .data import DailySeries, KsResult, SummaryStats, ingest_csv, ks_normality, summary_stats
from .errors import (CalibrationError, DomainError, IngestError, NoBracketError,
                     TempDerivError)
from .esscher import ThetaSolution, martingale_residual, solve_theta
from .seasonal import FourCoeffs, eval_seasonal, k1, k2
from .simulate import SimConfig, mc_price_cat, simulate_cat, simulate_paths

__version__ = "0.1.0"

__all__ = [
    "AlphaFit", "CalibrationError", "ContractSpec", "CosGrid", "DailySeries",
    "DomainError", "FitReport", "FourCoeffs", "GammaTimeChange", "IngestError",
    "KsResult", "ModelParams", "NoBracketError", "PricingWarning",
    "SimConfig", "StrangleQuote", "SummaryStats", "TempDerivError",
    "ThetaSolution", "TimeChangeFit", "a1", "cat_cumulants", "charfun_T",
    "charfun_cat", "cos_coefficients", "density_from_charfun", "eval_seasonal",
    "fit_alpha", "fit_seasonal", "fit_timechange", "ingest_csv",
    "innovations", "k1", "k2", "ks_normality",
    "martingale_residual", "mc_price_cat",
    "price_strangle", "simulate_cat", "simulate_paths",
    "solve_theta", "summary_stats", "transformed_timechange", "truncation_bounds",
    "v_cumulants",
]
