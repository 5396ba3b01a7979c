"""Certified exact spectra of weighted Laplacians on simplicial complexes.

The package builds flag complexes of finite vector spaces, assembles the
weighted coboundary Laplacian on i-cochains over exact rationals,
computes certified minimal polynomials, isolates their real roots with
Sturm chains, and verifies the spectral statements the construction is
designed around: the maximal eigenvalue, the bound on the minimal
nonzero eigenvalue, integer eigenvalue membership, the two-sided
fundamental inequality driven by vertex links, and the cohomology
vanishing threshold.
"""

from .version import VERSION as __version__
