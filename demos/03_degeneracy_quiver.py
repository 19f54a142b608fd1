# coding: utf-8

# # Degeneracy quivers of linear actions
#
# For a group acting linearly on rational space, every subgroup H has a
# fixed subspace Fix(H), the image of the averaging projector
# P = (1/|H|) sum rho(h); it is computed exactly from the generators s of
# H alone, as the common kernel of rho(s) - I.  Arranging the subgroup
# classes by subconjugacy gives the degeneracy quiver: each covering
# arrow carries the "order parameter" directions lost when symmetry grows.
#
#     python3 demos/03_degeneracy_quiver.py

from phasecat import (Subgroup, averaging_projector, degeneracy_quiver,
                      fixtures, isotypic_decomposition, ratmat)

# The standard 2-dimensional representation of S3 (the reflection
# symmetries of a triangle, with the rotation acting irrationally enough
# that only reflections fix lines).

action = fixtures.load_representation("s3_standard")
s3 = action.group

# The averaging projector over the full group is exactly zero: the
# representation has no invariant vectors.

P = averaging_projector(action, Subgroup(s3, tuple(range(s3.order))))
print("projector over all of S3:", P)

# The quiver.  Nodes are subgroup classes with their fixed dimensions;
# arrows are subconjugacy covers with the dimension dropped along each.

quiver = degeneracy_quiver(action)
print("\nnodes:")
for i, node in enumerate(quiver.nodes):
    print(f"  node {i}: subgroup order {node.subgroup_class.order}, "
          f"dim Fix = {node.fix_dimension}")
print("arrows:")
for a in quiver.arrows:
    print(f"  {a.source} -> {a.target}: normal dimension "
          f"{a.normal.dimension}")

# Dimension bookkeeping is exact on every arrow:
# dim Fix(H0) = dim Fix(conjugated H1) + dim normal.

# The surviving symmetry acts on each normal space.  For the arrow from
# the trivial class into a reflection class, the reflection acts on the
# 1-dimensional broken direction by -1 -- the classic order-parameter
# sign flip.

triv_to_refl = next(a for a in quiver.arrows
                    if quiver.nodes[a.source].subgroup_class.order == 1
                    and quiver.nodes[a.target].subgroup_class.order == 2)
for g, mat in sorted(triv_to_refl.normal.restricted.items()):
    print(f"  element {g} acts on the normal line by {mat[0][0]}")

# Finally, cyclic subgroups decompose the space into rational isotypic
# pieces, indexed by the divisors d whose primitive d-th roots of unity
# occur.  For the rotation subgroup C3 the whole plane is one primitive
# piece (d = 3): no rational eigenvectors at all.

from phasecat.permgroup import all_subgroups

c3 = next(s for s in all_subgroups(s3) if s.order == 3)
pieces = isotypic_decomposition(action, c3)
for d, basis in sorted(pieces.items()):
    print(f"isotypic piece d={d}: dimension {len(basis)}")
