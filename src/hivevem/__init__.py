"""Stabilizer-free P1 virtual elements on honeycomb meshes.

Solves the Poisson problem with homogeneous Dirichlet data on the unit
regular hexagon, measures the superconvergence of the discrete solution
towards the space interpolant, and lifts the solution to fourth-order
accuracy with patchwise cubic least squares.
"""

__version__ = "0.1.0"
