# coding: utf-8

# # From a permutation group to its orbit category
#
# This walkthrough builds the symmetric group S3 as a permutation group,
# lists its subgroups up to conjugacy, and assembles the orbit category:
# one object per conjugacy class of subgroups, with equivariant maps of
# coset spaces as morphisms.  Run it directly:
#
#     python3 demos/01_orbit_category.py

from phasecat import (build_orbit_category, closure,
                      conjugacy_classes_of_subgroups, export_dot,
                      subconjugacy, weyl_group)

# S3 acting on three points, generated by a transposition and a 3-cycle.
# Permutations are written as image arrays: [1, 0, 2] swaps 0 and 1.

s3 = closure(3, [[1, 0, 2], [1, 2, 0]])
print("group order:", s3.order)

# One walk finds the conjugacy classes of subgroups: starting from the
# trivial subgroup, it extends the first subgroup of each class by one
# element at a time.  Conjugation merges the three reflection subgroups
# into a single class.

classes = conjugacy_classes_of_subgroups(s3)
print("\nconjugacy classes of subgroups:")
for c in classes:
    w = weyl_group(s3, c.representative)
    print(f"  class {c.class_index}: order {c.order}, "
          f"{len(c.orbit_of_subgroups)} subgroup(s), |W| = {w.order}")

# Every subgroup is a member of one class.  Lagrange's theorem is
# visible in the order column.

print("\nsubgroups:")
for c in classes:
    for sub in c.orbit_of_subgroups:
        print("  order", sub.order, "members", sub.members)

# The subconjugacy order, kept as the walk's extensions H -> <H, g>:
# for each class, the classes that contain a conjugate of it.

print("\nclasses at or above each class:", subconjugacy(classes))

# The orbit category.  Hom-set sizes count equivariant maps G/H0 -> G/H1;
# the diagonal entries are the Weyl group orders above.

orbit = build_orbit_category(s3, classes)
print("\nhom-set sizes (row = source class, column = target class):")
n = len(classes)
print("     " + "  ".join(f"c{j}" for j in range(n)))
for i in range(n):
    row = [len(orbit.hom_set(i, j)) for j in range(n)]
    print(f"  c{i} " + "  ".join(f"{v:2d}" for v in row))

# Maps only exist toward larger (subconjugate) symmetry: the lower
# triangle of that table is all zeros.

print("\nDOT rendering of the category (identities and automorphisms")
print("are folded into the node labels):\n")
print(export_dot(orbit.category))
