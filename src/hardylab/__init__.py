"""Numerical workbench for Hardy-type inequality criteria.

Finite-horizon verification of the per-index criteria behind forward
(weighted-mean) and reverse (tail-mean) inequalities, the auxiliary weight
sequences they rely on, the recurrent-inequality parameterization with its
feasibility conditions and constants, and an operator lab that brackets
the sharp constants from the other side.
"""
