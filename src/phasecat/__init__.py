"""Finite-scale phase diagrams for transformation groupoids.

Orbit categories of finite permutation groups, fixed-point presheaves on
simplicial G-complexes and their Grothendieck categories of elements,
degeneracy quivers of rational linear actions, Milnor numbers and Euler
gradings of quasihomogeneous singularities, and Cramer rate functions for
finite discrete observables -- with deterministic DOT and olog exporters.

``import phasecat`` loads no submodule: a public name (or a submodule such
as ``phasecat.permgroup``) is imported on first access (PEP 562), so a
process compiles only the modules it uses.
"""

import importlib

# Each submodule and the public names taken from it.
_EXPORTS = {
    "category": ("FiniteCategory", "IsoWitness", "category_isomorphic"),
    "errors": ("CapExceededError", "PhasecatError", "ValidationError"),
    "germs": ("ParseError", "PolyGerm", "parse_germ"),
    "gspace": ("GComplex", "components", "fixed_subcomplex", "isotropy",
               "orbit_of", "pi0_fix_presheaf", "subdivide"),
    "largedev": ("DiscreteObservable", "RateProfile", "bernoulli",
                 "binary_entropy", "cgf", "cgf_prime", "cramer", "legendre"),
    "linrep": ("LinearAction", "averaging_projector", "degeneracy_quiver",
               "fix_subspace", "isotypic_decomposition", "relative_normal"),
    "ologio": ("atomic_write", "export_dot", "export_olog", "import_olog",
               "olog_json"),
    "orbitcat": ("OrbitCategory", "OrbitMorphism", "build_orbit_category"),
    "permgroup": ("FiniteGroup", "Subgroup", "SubgroupClass", "all_subgroups",
                  "closure", "conjugacy_classes_of_subgroups", "normalizer",
                  "subconjugacy", "transporter", "weyl_group"),
    "phase": ("PhaseCategory", "StratifiedComplex", "build_phase_diagram",
              "forgetful_functor", "quotient_functor", "strata_category"),
    "singularity": ("AdjacencyCorpus", "NonIsolated", "QuasihomogeneousGerm",
                    "corpus_adjacency", "euler_apply", "euler_eigenvalue",
                    "local_algebra", "milnor_number", "modality",
                    "relative_cokernel", "spectrum_grading", "stabilize",
                    "weight_milnor"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "fixtures", "ratmat"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}",
                                                __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
