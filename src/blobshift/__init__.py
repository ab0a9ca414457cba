"""Desk-scale toolkit for sparse configurations on the line and the grid.

The package makes a family of combinatorial objects executable at finite
scale: patterns over pointed alphabets and their blob decompositions,
substitution systems, move-word path dynamics, paths drawn on pattern
supports, blob hierarchies with axiom verification, cellular-automaton
probes, full-group order searches, and constructive prime-gap experiments.

Everything operates on finite windows and reports only what the window can
certify; nothing here decides properties of infinite configurations.
"""

__version__ = "0.1.0"
