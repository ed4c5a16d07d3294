"""The immutable value types: their fields refuse assignment, equal values
compare and hash alike however they were given, and the constructors check
every field they are given."""
import pytest

from topogamma import (
    Claim,
    EvalOptions,
    GammaOperation,
    PointMap,
    SearchConfig,
    Topology,
    Universe,
    gamma_builtin,
    get_claim,
    make_topology,
)
from topogamma.claims import _point_maps

U2 = Universe(("a", "b"))
SIERPINSKI = make_topology(U2, (0, 1, 3))

FROZEN = [
    pytest.param(lambda: Universe(("a", "b")), "labels", id="Universe"),
    pytest.param(lambda: make_topology(U2, (0, 1, 3)), "opens", id="Topology"),
    pytest.param(lambda: gamma_builtin("identity", SIERPINSKI), "table", id="GammaOperation"),
    pytest.param(lambda: PointMap(U2, U2, (1, 0)), "assignment", id="PointMap"),
    pytest.param(lambda: EvalOptions(), "drop", id="EvalOptions"),
    pytest.param(lambda: get_claim("T3.13"), "hypotheses", id="Claim"),
    pytest.param(lambda: SearchConfig(), "max_n", id="SearchConfig"),
]


@pytest.mark.parametrize("make, field", FROZEN)
def test_fields_refuse_assignment(make, field):
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


EQUAL_PAIRS = [
    pytest.param(lambda: Universe(("a", "b")), lambda: Universe(["a", "b"]), id="Universe"),
    pytest.param(lambda: make_topology(U2, (0, 1, 3)), lambda: make_topology(U2, [3, 1, 0]),
                 id="Topology"),
    pytest.param(lambda: EvalOptions(drop=frozenset({"open"})),
                 lambda: EvalOptions(drop={"open"}), id="EvalOptions"),
    pytest.param(lambda: make_topology(U2, (0, 1, 3)), lambda: Topology(U2, [0, 1, 3]),
                 id="Topology-from-list"),
    pytest.param(lambda: PointMap(U2, U2, (1, 0)), lambda: PointMap(U2, U2, [1, 0]),
                 id="PointMap-from-list"),
]


def _claim(hypotheses):
    return Claim("X", "space", "a law", bindings=lambda ctx: [()],
                 holds=lambda ctx, opt, b: True, hypotheses=hypotheses)


def test_list_fields_are_stored_as_tuples():
    assert Topology(U2, [0, 1, 3]).opens == (0, 1, 3)
    assert isinstance(Topology(U2, [0, 1, 3]).opens, tuple)
    assert isinstance(PointMap(U2, U2, [1, 0]).assignment, tuple)
    # a claim's hypotheses key the gate cache, so a list must not reach it
    assert _claim(["open"]).hypotheses == ("open",)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: EvalOptions(drop="open"), id="EvalOptions-drop"),
    pytest.param(lambda: EvalOptions(require="open"), id="EvalOptions-require"),
    pytest.param(lambda: _claim("open"), id="Claim-hypotheses"),
])
def test_a_bare_string_of_hypotheses_is_refused(make):
    # read letter by letter, it would be refused for a letter it never named
    with pytest.raises(ValueError, match="'open' is one string.*takes hypothesis names"):
        make()


def test_a_claim_refuses_an_unknown_hypothesis():
    with pytest.raises(ValueError, match="unknown hypothesis 'regualr'"):
        _claim(("regualr",))


@pytest.mark.parametrize("assignment", [(0.5, 1), (1, "0"), (1, None), (True, False)])
def test_point_map_refuses_a_non_integer_target(assignment):
    # accepted, it would fail only when the image table first fills; a bool
    # would be stored as given, as True rather than 1
    with pytest.raises(ValueError, match="is not an integer"):
        PointMap(U2, U2, assignment)


@pytest.mark.parametrize("make, make_again", EQUAL_PAIRS)
def test_equal_values_compare_and_hash_equal(make, make_again):
    first, second = make(), make_again()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_cached_tables_stay_out_of_equality():
    filled = make_topology(U2, (0, 1, 3))
    assert filled.interior_table == (0, 1, 0, 3)
    assert filled == Topology(U2, (0, 1, 3))
    assert hash(filled) == hash(Topology(U2, (0, 1, 3)))
    assert filled != Topology(U2, (0, 3))
    assert GammaOperation((0, 1), "x") != GammaOperation((0, 1), "y")


def test_universe_stores_its_labels_as_a_tuple():
    listed = Universe(["a", "b"])
    assert listed.labels == ("a", "b")
    assert isinstance(listed.labels, tuple)
    # a universe given as a list keys the shared point maps like a tuple one
    assert _point_maps(listed, listed) is _point_maps(U2, U2)


def test_search_config_stores_drop_as_a_frozenset():
    # options given a set, a frozenset or a list make equal configs
    configs = [SearchConfig(options=EvalOptions(drop=drop))
               for drop in ({"open"}, frozenset({"open"}), ["open"])]
    assert all(isinstance(c.options.drop, frozenset) for c in configs)
    assert configs[0].options.drop == frozenset({"open"})
    assert configs[0] == configs[1] == configs[2]
    assert len({hash(c) for c in configs}) == 1


@pytest.mark.parametrize("field, value", [
    ("closure_variant", "bogus"),
    ("domain", "bogus"),
    ("max_n", 0),
    ("op_budget", 0),
    ("options", {"drop": {"open"}}),
    # bounds must be exactly int and the flag exactly bool: a float max_n
    # failed only once the stream ran, a float budget swept one extra
    # operation per topology, and True ran as 1
    ("max_n", 2.5),
    ("max_n", True),
    ("op_budget", 2.5),
    ("op_budget", True),
    ("stop_at_first", 1),
    ("stop_at_first", None),
])
def test_search_config_checks_every_field_at_construction(field, value):
    with pytest.raises(ValueError):
        SearchConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("semi_regular_variant", "bogus"),
    ("interior_reading", "bogus"),
    ("drop", {"bogus"}),
    ("require", {"bogus"}),
])
def test_eval_options_checks_every_field_at_construction(field, value):
    with pytest.raises(ValueError):
        EvalOptions(**{field: value})
