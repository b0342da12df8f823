"""Transformation groupoids, their homology, and Morita invariance.

Arrows of the transformation groupoid are pairs (x, g) with range x and
source g^-1.x.  Homology with constant integer coefficients is computed
from composable tuples by Smith reduction; restricting to a full subset
of units must not change it.
"""

from coarsehom import dynamics as dy
from coarsehom.gallery import get_scenario
from coarsehom.groups import ProductGroup, cyclic_group

# a free transitive action has the homology of a point
act = dy.translation_action(cyclic_group(4))
gpd = dy.action_groupoid(act)
print("translation groupoid of Z/4 on itself:")
for h in dy.groupoid_homology_finite(gpd, 2):
    print("  ", h)

# a one-unit groupoid is a group; the engine recovers group homology
# of Z/2 including its torsion, and cohomology moves the torsion up
triv = dy.FiniteAction(cyclic_group(2), ["pt"], lambda g, x: x)
one = dy.action_groupoid(triv)
print("\none-unit groupoid on Z/2, homology then cohomology:")
for h in dy.groupoid_homology_finite(one, 2):
    print("  ", h)
for h in dy.groupoid_cohomology_finite(one, 2):
    print("  ", h)

# Morita invariance: restricting to a fundamental domain of the product
# coupling leaves all of it unchanged.  The coupling's two actions are
# one left action of G x H, (g, h).w = g w h^-1
coup = get_scenario("product-coupling")
both = dy.FiniteAction(ProductGroup(coup.G, coup.H), coup.points,
                       lambda gh, w: coup.lact(gh[0], coup.hact(gh[1], w)))
mor = dy.morita_invariance_check(both, coup.xbar, max_degree=1)
print("\nMorita check on the product coupling:",
      {k: mor[k] for k in ("subset_size", "units", "homology_equal",
                           "cohomology_equal", "ok")})

# the restricted groupoids of a Kakutani pair are isomorphic through
# the exchange map, so their homology agrees
kak = dy.couple_to_kakutani(get_scenario("z4-z2-kakutani"))
hx = dy.groupoid_homology_finite(
    dy.restrict_groupoid(dy.action_groupoid(kak.actX), kak.A), 1)
hy = dy.groupoid_homology_finite(
    dy.restrict_groupoid(dy.action_groupoid(kak.actY), kak.B), 1)
print("\nKakutani-restricted groupoids agree:", hx == hy)
