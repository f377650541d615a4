"""Tight torus-link constructions from toroidal helices, with ropelength
bounds and embedding verification.

The package builds T(pQ, Q) torus links (and their threaded doubles) out of
helices wound on nested tori, measures the resulting polygonal geometry
(clearance, curvature, linking numbers), and compares normalized ropelength
against lower bounds and limiting three-quarter-power coefficients.
"""

__version__ = "0.1.0"
