"""The package's public API is pinned, so that members no CLI path runs do
not grow back unnoticed.  Reference routes the tests still need live in
tests/reference.py."""

import dataclasses
import inspect
import types

import pytest

import coverzeta
from coverzeta import census, characters, groupring, herbrand, padic, picard, serre, snf, voltage

PUBLIC = {
    "Character",
    "CyclicGroup",
    "DerivedCover",
    "DisconnectedCover",
    "GroupRingElement",
    "PAdicInt",
    "PicardModule",
    "PrecisionExhausted",
    "SerreGraph",
    "TheoremReport",
    "Verdict",
    "VerificationError",
    "VoltageSpec",
    "bouquet",
    "build_report",
    "bundled_spec",
    "connected_by_voltage_criterion",
    "default_precision",
    "derive",
    "duality_check",
    "equivariant_laplacian",
    "eta_at_one",
    "integer_determinant",
    "is_odd_prime",
    "l_value",
    "load_spec",
    "p_part",
    "picard_factors",
    "require_connected_cover",
    "smallest_primitive_root",
    "spec_from_dict",
    "spec_to_dict",
    "teichmuller",
}

# Members that moved to tests/reference.py or to another module, or went,
# by their owner.
REMOVED = [
    (serre, ["DirectedEdge", "cycle_graph", "path_graph"]),
    (
        serre.SerreGraph,
        [
            "labels",
            "_edge_lists",
            "directed_edges",
            "edge",
            "edges_from",
            "valence",
            "adjacency_count",
            "euler_characteristic",
            "laplacian_matrix",
        ],
    ),
    (padic, ["abs_p_inverse"]),
    (
        padic.PAdicInt,
        [
            "_coerce",
            "__add__",
            "__radd__",
            "__sub__",
            "__rsub__",
            "__neg__",
            "__mul__",
            "__rmul__",
            "__pow__",
            "reduce",
            "modulus",
            "__str__",
        ],
    ),
    (
        groupring.GroupRingElement,
        ["one", "_check", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "is_zero"],
    ),
    (groupring.CyclicGroup, ["inverse"]),
    (groupring, ["ring_determinant", "ring_unit_pivots", "unit_inverse"]),
    (snf, ["ring_unit_pivots", "sparse_det_mod", "_unit_pivots"]),
    (characters, ["zp_characters"]),
    (characters.Character, ["value", "contragredient"]),
    (
        voltage.DerivedCover,
        ["fiber_coords", "projection", "deck_act", "base_transversal", "vertex_at"],
    ),
    (voltage.VoltageSpec, ["voltage"]),
    (voltage, ["cycle_voltage_subgroup"]),
    (picard, ["spanning_tree_count", "ModPEchelon"]),
    (picard.PicardModule, ["dim_C"]),
    (census, ["_mate_fields"]),
    (herbrand, ["CoverAnalysis", "CharacterRow"]),
]


def test_public_names_are_pinned():
    # Submodules become attributes of the package once imported, so they
    # are left out of the comparison.
    public = {
        name
        for name in dir(coverzeta)
        if not name.startswith("_") and not isinstance(getattr(coverzeta, name), types.ModuleType)
    }
    assert public == PUBLIC


@pytest.mark.parametrize(
    "owner, name", [(owner, name) for owner, names in REMOVED for name in names]
)
def test_removed_member_is_gone(owner, name):
    # A class still inherits __str__ from object; none of its own classes
    # defines the member.
    if isinstance(owner, type):
        scopes = [vars(k) for k in owner.__mro__ if k is not object]
    else:
        scopes = [vars(owner)]
    assert all(name not in scope for scope in scopes)


def test_group_ring_product_and_unit_test_are_for_z_g_only():
    # The u-truncated ring Z[G][u]/(u^D) is the reference's own: the package
    # builds only Z[G]'s product, and a ring record from a product it is given.
    assert list(inspect.signature(groupring.convolution).parameters) == ["order"]
    assert list(inspect.signature(groupring.vector_ring).parameters) == ["product", "size", "order"]


def test_ring_record_carries_no_integer_image():
    # The certificate works in each ring's own arithmetic: a record gives
    # the integers as ring elements through ``scalar``, and no map out.
    assert [f.name for f in dataclasses.fields(snf.Ring)] == [
        "zero", "one", "inverse", "neg", "fma", "scalar"
    ]
