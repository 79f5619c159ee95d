"""Exact branching of generalized Verma modules over symmetric pairs.

Decides when such restrictions are discretely decomposable, computes the
branching multiplicities, Gelfand-Kirillov dimensions and closed-orbit
censuses, and verifies the explicit multiplicity-free branching laws.  All
arithmetic is exact rational.

The public names below are resolved on first access (PEP 562), so
``import vermabranch`` loads no layer module until one of its names is used.
"""

import importlib

__version__ = "0.1.0"


class PreconditionError(ValueError):
    """A configuration problem (unknown or missing ``--pair``, an invalid
    parabolic, a rank cap): the CLI maps it to exit code 2.  The engine's
    ``RankCapError`` and ``IncompatibleRestrictionError`` subclass it.  It
    lives here so that ``commands`` and the engine raise the class ``cli``
    catches without importing ``cli``, which runs as ``__main__`` under
    ``python -m vermabranch.cli``."""


_EXPORTS = {
    "exactla": (
        "MatrixElement NilpotencyReport Rational Subspace bracket echelon_span "
        "nilpotent_subalgebra_test span_of_matrices weight_decomposition"
    ),
    "liealg": (
        "ClassicalType RankCapError RootDatum Weight WeylElement "
        "freudenthal_character root_datum weyl_dimension weyl_group"
    ),
    "pairs": "PairSpec SymmetricPair build_pair catalog_pairs restricted_root_data tau_split",
    "realization": "AlgebraRealization Involution build_classical",
    "parabolic": (
        "ClosednessReport CompatibilityReport IncompatibleRestrictionError "
        "OrbitCensusReport ParabolicData closed_orbit_census closedness_report "
        "compatibility_report condition_iii_spot_check parabolic_from_H "
        "parabolic_from_simple_subset"
    ),
    "branching": (
        "BranchEntry BranchingTable CharacterSeries GenericityReport MfScanRow "
        "VermaSpec branch_multiplicities character_series closed_form_law "
        "decompose_character genericity_check law_setting mf_scan "
        "restrict_finite_module sym_power_character verify_character_identity"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
