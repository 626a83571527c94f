"""Value semantics of the package's immutable classes: equal fields mean
equal objects with equal hashes, objects of different classes never
compare equal, fields cannot be assigned or deleted, and each class, like
a support quadruple's witness, still validates its arguments."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from catborel.dyck import DyckPath, floor_valleys, pyramid, staircase
from catborel.ideals import BasicIdeal
from catborel.loopalgebra import Span, TruncatedLoopAlgebra
from catborel.matrices import ExactMatrix
from catborel.rootsys import FiniteRootSystem, WindowPoset, WindowRoot, build_root_system, window
from catborel.supports import build_witness
from catborel.verify import Check
from test_properties import dyck_words


def _algebra(masks=("upper", "lower_diag")):
    return TruncatedLoopAlgebra(3, masks)


# per class: a builder taking a variant index, where equal indices give
# objects with equal fields, built afresh each call
BUILDERS = {
    "DyckPath": lambda k: DyckPath(("rrff", "rfrf")[k]),
    "BasicIdeal": lambda k: BasicIdeal(DyckPath("rrff"), DyckPath(("rrff", "rfrf")[k])),
    "ExactMatrix": lambda k: ExactMatrix(((1, k), (0, 1))),
    "FiniteRootSystem": lambda k: build_root_system(("A2", "B2")[k]),
    "WindowRoot": lambda k: WindowRoot((1, k), 0),
    "WindowPoset": lambda k: window(build_root_system(("A2", "B2")[k])),
    "TruncatedLoopAlgebra": lambda k: _algebra((("upper", "lower_diag"), ("upper", "full"))[k]),
    "Span": lambda k: Span(_algebra(), frozenset({(0, 1, 2 + k)}), {1: [(1, -1, 0)]}),
    "Check": lambda k: Check("dyck", "name", bool(k), "detail"),
}
# one field of each class, for the assignment and deletion tests
FIELDS = {
    "DyckPath": "word",
    "BasicIdeal": "p",
    "ExactMatrix": "entries",
    "FiniteRootSystem": "label",
    "WindowRoot": "level",
    "WindowPoset": "closure",
    "TruncatedLoopAlgebra": "masks",
    "Span": "units",
    "Check": "ok",
}
NAMES = sorted(BUILDERS)


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_mean_equal_objects(name):
    a, b, other = BUILDERS[name](0), BUILDERS[name](0), BUILDERS[name](1)
    assert a is not b
    assert repr(a).startswith(f"{name}(")
    assert a == b and not a != b
    assert a != other and not a == other
    if name == "Span":
        # its diagonals are a dict, so a span is unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_other_classes_are_never_equal(name):
    a = BUILDERS[name](0)
    for other in NAMES:
        if other != name:
            assert a != BUILDERS[other](0)
    # nor is a plain tuple or string of the same fields
    assert a != a._fields()
    assert a != getattr(a, FIELDS[name])


def test_dyck_path_is_not_its_word():
    p = DyckPath("rf")
    assert p != "rf" and p != ("rf",)
    assert str(p) == "rf"
    assert eval(repr(p)) == p


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    a = BUILDERS[name](0)
    field = FIELDS[name]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) is before


def test_dyck_path_statistics_stay_cached():
    p = DyckPath("rrfrff")
    assert p.heights is p.heights
    assert p.peaks == ((2, 2), (4, 2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: DyckPath("rffr"),
        lambda: DyckPath("rxrf"),
        lambda: DyckPath(""),
        lambda: build_witness(pyramid(2), pyramid(2), pyramid(2), pyramid(3)),
        lambda: WindowRoot((1, 0), 2),
        lambda: TruncatedLoopAlgebra(3, ("upper", "diag")),
        lambda: TruncatedLoopAlgebra(0, ("full",)),
        lambda: Span(_algebra(), frozenset({(0, 2, 2)}), {}),
        lambda: Span(_algebra(), frozenset({(1, 1, 2)}), {}),
        lambda: BasicIdeal(staircase(3), staircase(3)),
        lambda: ExactMatrix(((1, -1), (0, 1))),
        lambda: ExactMatrix(((1, 2),)),
    ],
    ids=[
        "dyck-below-axis", "dyck-bad-step", "dyck-empty", "quadruple-semilength",
        "window-level-two", "unknown-mask", "algebra-n-zero",
        "span-diagonal-unit", "span-masked-unit", "inadmissible-pair",
        "negative-entry", "not-square",
    ],
)
def test_validation_raises_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_poset_built_by_keyword():
    poset = window(build_root_system("A2"))
    rebuilt = WindowPoset(
        system=poset.system, elements=poset.elements, natural=poset.natural, closure=poset.closure
    )
    assert rebuilt == poset
    system = poset.system
    assert FiniteRootSystem(
        label=system.label,
        cartan=system.cartan,
        positive_roots=system.positive_roots,
        highest_root=system.highest_root,
    ) == system


@given(st.integers(1, 12).flatmap(dyck_words))
def test_equal_paths_share_cache_entries(word):
    p, twin = DyckPath(word), DyckPath("".join(list(word)))
    first = floor_valleys(p)
    before = floor_valleys.cache_info()
    assert floor_valleys(twin) is first
    after = floor_valleys.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
