"""The package's export lists name what the modules define, once each."""

from __future__ import annotations

import importlib
import pkgutil

import chainring

REMOVED = (
    "small_defect_distribution",
    "closed_form_crosscheck",
    "ClosedFormCrossCheck",
    "RingElement",
    "gamma_decompose",
    "unit_inverse",
    "matmul",
    "matrix_type",
    "rowspace_size",
    "identity_matrix",
    "enumerate_codewords",
    "cardinality",
    "parity_check",
    "PascalSystem",
    "submatrix",
    "min_distance",
    "DoubleCountCheck",
)

# Methods removed with the exports above: the element wrapper's helpers on
# ChainRing, and members that no caller in the package used.
REMOVED_MEMBERS = {
    chainring.ChainRing: (
        "gamma", "zero", "one", "element", "sub", "gamma_code", "elements",
        "residue_representatives", "gamma_pow",
    ),
    chainring.RingMatrix: ("is_zero", "transpose"),
    chainring.LinearCode: ("same_codewords", "contains"),
    chainring.WeightDistribution: ("min_positive_weight",),
}


def test_export_lists_resolve_without_duplicates():
    modules = [chainring] + [
        importlib.import_module(f"chainring.{info.name}")
        for info in pkgutil.iter_modules(chainring.__path__)
        if info.name != "__main__"
    ]
    checked = [module for module in modules if hasattr(module, "__all__")]
    assert {module.__name__ for module in checked} >= {"chainring", "chainring.identities"}
    for module in checked:
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert not set(REMOVED) & set(names), module.__name__
        assert not any(hasattr(module, name) for name in REMOVED), module.__name__


def test_removed_members_stay_removed():
    for cls, names in REMOVED_MEMBERS.items():
        assert not [name for name in names if hasattr(cls, name)], cls.__name__
