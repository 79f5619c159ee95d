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


# size caps, here so that a rejected size exits 2 before any engine module loads
PAIR_RANK_CAP = 12  # ambient rank of a catalog pair, checked before it is built
WEYL_RANK_CAP = MF_SCAN_RANK_CAP = 6
DEGREE_CAP = LEVEL_CAP = 12
LEVI_DIM_CAP = 1500  # dim F_lambda, by Weyl's formula before Freudenthal runs


class RankCapError(PreconditionError):
    """Raised by `check_cap` when a rank, degree or level exceeds its cap."""


def check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise RankCapError("%s capped at %d" % (name, cap))
    if value < 0:
        raise PreconditionError("%s must be non-negative, got %d" % (name, value))


_EXPORTS = {
    "exactla": (
        "MatrixElement NilpotencyReport Rational Subspace bracket nilpotent_subalgebra_test "
        "span_of_matrices weight_decomposition"
    ),
    "liealg": (
        "ClassicalType RootDatum Weight WeylElement "
        "freudenthal_character root_datum weyl_group"
    ),
    "pairs": "PairSpec SymmetricPair build_pair catalog_pairs restricted_root_data tau_split",
    "realization": "AlgebraRealization Involution",
    "parabolic": (
        "ClosednessReport CompatibilityReport IncompatibleRestrictionError "
        "OrbitCensusReport ParabolicData closed_orbit_census closedness_report "
        "compatibility_report condition_iii_spot_check parabolic_from_H "
        "parabolic_from_simple_subset"
    ),
    "branching": (
        "BranchEntry BranchingTable GenericityReport MfScanRow VermaSpec "
        "branch_multiplicities closed_form_law decompose_character genericity_check "
        "law_setting mf_scan restrict_finite_module verify_character_identity"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_MODULE_OF, "RankCapError"])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
