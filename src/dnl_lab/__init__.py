"""Numerical laboratory for the doubly nonlinear diffusion equation

    d/dt (u^q) - div(|Du|^(p-2) Du) = 0.

It depends on numpy alone.

Subpackages:
    core        exponent arithmetic, regime classification, the 1-D grid,
                the g-function in closed form, forward time mollifiers
    exact       catalog of closed-form solutions / counterexample families
    solver      implicit finite-volume solver for Cauchy-Dirichlet problems
    diagnostics empirical measurement of Harnack / boundedness / extinction /
                gradient estimates
    porous      porous-media flow models -> PDE parameter mapping
    cli         configuration-driven experiment runner
"""

from .core import (
    ExponentTriple,
    RegimeFlags,
    Grid1D,
    classify,
    g_signed,
    mollify_exp,
    steklov,
)

__version__ = "0.1.0"
