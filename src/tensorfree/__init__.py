"""Exact-arithmetic workbench for star-freeness in finite tensor products
of noncommutative probability spaces.

The package computes joint moments of free families over Q(i), tests
bounded star-freeness, checks the two tensor freeness conditions and
the dominating-factor searches built on them, runs the matching
group-level procedures for presented groups, and verifies the
polynomial identities behind the equality-case arguments.
"""
