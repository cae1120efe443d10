"""Exact closed forms and high-precision numeric verification for
Tornheim-like series: harmonic-weighted double sums, their single-index
regroupings, and the half-odd-denominator companions, all evaluated as
rational combinations of 1, ln 2, zeta values and pi powers, then checked
against independent summation and quadrature oracles.
"""

from .closedform import closed_form_of, eval_An, eval_aXL
from .exact import bernoulli, harmonic, harmonic_gen, odd_harmonic
from .harness import (
    EvalReport,
    SuiteEntry,
    SuiteManifest,
    iter_suite,
    paper_full_manifest,
    smoke_manifest,
    verify,
)
from .oracle import (
    NumericCfg,
    OracleError,
    OracleResult,
    const_ln2,
    const_pi,
    const_zeta,
    oracle_diagonal,
    oracle_quadrature,
    oracle_raw,
    tail_estimate,
    zx_numeric,
)
from .series import SeriesSpec, parse_spec
from .zexpr import ConstSym, ZExpr, zeta_even_to_pi, zx_normalize

__version__ = "0.1.0"
