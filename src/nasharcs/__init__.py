"""nasharcs: non-inclusion certificates for Nash arc families.

Exact integer/rational algorithms over weighted dual resolution graphs
of normal surface singularities: the divisorial order criterion, the
bamboo decomposition of minimal graphs with propagation along dominant
birational morphisms, and arc-level cross-validation for the weight-2
bamboo singularities.

The package re-exports nothing; import from its modules, such as
`nasharcs.graph`, `nasharcs.classify` or `nasharcs.arcs`.
"""

__version__ = "0.1.0"
