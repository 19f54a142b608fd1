# coding: utf-8

# # Milnor numbers, spectra, and the ADE adjacency corpus
#
# The local algebra of a polynomial germ is the quotient by its Jacobian
# ideal; its dimension (the Milnor number mu) is finite exactly when the
# singularity is isolated.  For quasihomogeneous germs the algebra is
# graded by the Euler derivation, giving the spectrum.
#
#     python3 demos/04_singularities.py

from phasecat import (NonIsolated, corpus_adjacency, local_algebra,
                      milnor_number, modality, parse_germ, relative_cokernel,
                      spectrum_grading, stabilize, weight_milnor)

# The E6 germ x^3 + y^4.  Everything is exact rational arithmetic.

f = parse_germ("x^3 + y^4")
alg = local_algebra(f)
print("germ:", f)
print("mu =", alg.dimension)
print("monomial basis of the local algebra:", alg.monomial_basis)

# The weight formula prod(1/w_i - 1) is an independent cross-check.

corpus = corpus_adjacency()
e6 = corpus.entries["E6"]
print("weight-formula mu =", weight_milnor(e6.weights))

# The spectrum: Euler eigenvalues of the basis monomials, symmetric
# about half its top value.

spec = spectrum_grading(e6.quasihomogeneous)
print("spectrum:", ", ".join(str(s) for s in spec))

# Non-isolated singularities are detected, not silently mis-measured: the
# error names a coordinate subspace on which every partial vanishes, which
# therefore lies in the critical locus.

try:
    milnor_number(parse_germ("x^2*y"))
except NonIsolated as exc:
    print("non-isolated, with proof:", exc)

# mu is certified, whatever the degree of the terms beyond the
# determinacy bound: this A2 germ has a term of degree 41.

h = parse_germ("x^2 + y^3 + x^41")
print(f"mu of {h} = {milnor_number(h)}")

# Adding a square in a fresh variable (stabilization) never changes mu.

g = stabilize(parse_germ("x^5"))
print(f"stabilized A4 germ: {g}, mu = {milnor_number(g)}")

# The bundled corpus knows the simple (ADE) singularities and their
# degenerations.  Every arrow drops mu by exactly 1, so each one carries
# a 1-dimensional relative cokernel whose weight is the top of the
# source's grading.

print("\ncorpus entries:")
for name in ("A2", "A3", "D4", "D5", "E6", "E7", "E8"):
    e = corpus.entries[name]
    print(f"  {name}: {e.normal_form}, mu = {e.mu}, "
          f"modality = {modality(e.mu, e.codim)}")

print("\nsome degeneration arrows:")
for src, dst in (("E6", "D5"), ("E6", "A5"), ("D4", "A3"), ("A2", "A1")):
    rc = relative_cokernel(corpus, src, dst)
    print(f"  {src} -> {dst}: cokernel dimension {rc.dimension}, "
          f"top weight {rc.top_weight}")
