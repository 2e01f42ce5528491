"""Inflated-variance contamination diagnostics for the sample mean.

Sampling model, limit-condition and Lindeberg-index diagnostics, Monte Carlo
replication of the standardized sample mean, and a config-driven experiment
runner with QQ outputs.
"""

__version__ = "0.1.0"
