"""Simulation and verification toolkit for extremes of subordinated Gaussian
processes: Gaussian linear processes, Pareto-scale subordination, M4 moving
maxima, closed-form extreme value limits, and Monte Carlo / quadrature oracles.
"""

from subgauss import chaos, evt, gausslin, harness, m4, pointproc, subordinate

__all__ = [
    "chaos",
    "evt",
    "gausslin",
    "harness",
    "m4",
    "pointproc",
    "subordinate",
]

__version__ = "0.1.0"
