"""Exact workbench for intersection-maximal set families and their uses.

Three connected layers: combinatorics of families of ell-subsets whose
pairwise intersection sum is maximal (combinat, families), the ell = 2
specialization to degree square sums of graphs (graphs), and linear codes
built from subspace systems over small finite fields, where those maximal
families conjecturally govern the higher weights (gf, linalg, codes).
"""
