"""Gradient projection with feasible inexact projections.

A first-order solver for min f(x) over a closed convex set C where the
projection step is allowed to be inexact under a relative error tolerance,
plus the adaptive rank-p spectrahedron projection oracle, benchmark problem
generators and an experiment harness.
"""

from .problems import generate_instance, starting_point, structured_start
from .schedules import SummableSchedule
from .solver import ConstantStepConfig, constant_alpha_from_gamma, solve_constant

__version__ = "0.1.0"
