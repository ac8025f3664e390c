"""denslab: a desk-scale laboratory for 1D density-dependent diffusions.

Builds laws of diffusions whose drift depends pointwise on the solution's own
density (the most singular mean-field coupling) as fixed points of a
frozen-density Fokker-Planck map, simulates them with interacting particles,
and verifies the quantitative estimates that govern them: smoothing rates,
super-continuity, entropy-cost inequalities, power-divergence structure, and
two-regime exponential moment bounds.
"""

__version__ = "0.1.0"
