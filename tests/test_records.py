"""The ten result records as values: construction, equality, hashing,
immutability, repr and pickling.

Each record is built twice: from plain field values, so that every check
reads the record machinery alone, and as a real result of a small system.
"""

from __future__ import annotations

import pickle

import pytest

from coxbruhat import (
    BPReport,
    CosetMaxResult,
    CoxeterSystem,
    IntPolynomial,
    Interval,
    ParabolicDecomposition,
    PoincareDecomposition,
    ShiftedMaxSet,
    Term,
    TraceStep,
    bp_report,
    coxeter_system,
    decompose,
    decompose_poincare,
    lower_interval,
    max_in_coset,
    max_in_relative_coset,
    shifted_max_set,
)
from coxbruhat.dot import HasseGraph, hasse_graph

PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)

# (class, field names in order, field values, repr of the record built from them)
RECORDS = [
    (CosetMaxResult, ("w", "x", "J", "maximum", "shift", "K"),
     ("w", "x", frozenset({0}), "q", "m", frozenset({0, 1})),
     "CosetMaxResult(w='w', x='x', J=frozenset({0}), maximum='q', shift='m', K=frozenset({0, 1}))"),
    (TraceStep, ("x", "left_descents", "u", "v", "coset_stabilizers", "s", "prefix_max",
                 "suffix_max", "maximum"),
     ("x", frozenset({1}), "u", "v", frozenset(), 1, "p", "r", "q"),
     "TraceStep(x='x', left_descents=frozenset({1}), u='u', v='v', coset_stabilizers=frozenset(),"
     " s=1, prefix_max='p', suffix_max='r', maximum='q')"),
    (ShiftedMaxSet, ("w", "J", "pairs", "values"),
     ("w", frozenset({0}), {"e": "m"}, frozenset({"m"})),
     "ShiftedMaxSet(w='w', J=frozenset({0}), pairs={'e': 'm'}, values=frozenset({'m'}))"),
    (Term, ("x", "shift", "shifted_max", "factor"),
     ("x", IntPolynomial((0, 1)), "m", IntPolynomial((1, 1))),
     "Term(x='x', shift=IntPolynomial(coeffs=(0, 1)), shifted_max='m',"
     " factor=IntPolynomial(coeffs=(1, 1)))"),
    (PoincareDecomposition, ("w", "J", "terms", "total", "K", "factorization"),
     ("w", frozenset({0}), ("t",), IntPolynomial((1, 1)), frozenset({0, 1}),
      (IntPolynomial((1,)), IntPolynomial((1, 1)))),
     "PoincareDecomposition(w='w', J=frozenset({0}), terms=('t',), total=IntPolynomial(coeffs=(1, 1)),"
     " K=frozenset({0, 1}), factorization=(IntPolynomial(coeffs=(1,)), IntPolynomial(coeffs=(1, 1))))"),
    (BPReport, ("w", "J", "v", "u", "parabolic_max", "is_bp", "factorization"),
     ("w", frozenset({0}), "v", "u", "u", False, None),
     "BPReport(w='w', J=frozenset({0}), v='v', u='u', parabolic_max='u', is_bp=False,"
     " factorization=None)"),
    (Interval, ("top", "ranks"),
     ("w", (("e",), ("a", "b"))),
     "Interval(top='w', ranks=(('e',), ('a', 'b')))"),
    (HasseGraph, ("interval", "colors", "edges"),
     ("i", {"e": "black"}, (("e", "a"),)),
     "HasseGraph(interval='i', colors={'e': 'black'}, edges=(('e', 'a'),))"),
    (ParabolicDecomposition, ("v", "u", "side", "J"),
     ("v", "u", "left", frozenset({2})),
     "ParabolicDecomposition(v='v', u='u', side='left', J=frozenset({2}))"),
    (IntPolynomial, ("coeffs",), ((1, 0, 2),), "IntPolynomial(coeffs=(1, 0, 2))"),
]

# the fields a record may leave out, with their defaults
DEFAULTS = {
    CosetMaxResult: {"K": None, "_levels": ()},
    PoincareDecomposition: {"K": None, "factorization": None},
    IntPolynomial: {"coeffs": ()},
}

UNHASHABLE = {ShiftedMaxSet, HasseGraph}  # they hold a dict

IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, names, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    for name, value in zip(names, values):
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_defaults_and_required_fields(cls, names, values, text):
    defaults = DEFAULTS.get(cls, {})
    required = [v for n, v in zip(names, values) if n not in defaults]
    record = cls(*required)
    for name, default in defaults.items():
        assert getattr(record, name) == default
    if required:
        with pytest.raises(TypeError):
            cls(*required[:-1])
    extra = len(set(defaults) - set(names)) + 1  # one past the last parameter
    with pytest.raises(TypeError):
        cls(*values, *[None] * extra)


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_value_equality_and_hash(cls, names, values, text):
    record, twin = cls(*values), cls(*[v for v in values])
    assert record == twin and not record != twin
    assert record is not twin
    for i in range(len(values)):
        changed = list(values)
        changed[i] = "something else"
        assert record != cls(*changed), names[i]
    assert record != tuple(values) and record != list(values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1


def test_records_of_two_classes_are_never_equal():
    """Term and ParabolicDecomposition both have four fields."""
    values = ("a", "b", "c", "d")
    assert Term(*values) != ParabolicDecomposition(*values)
    assert ParabolicDecomposition(*values) != Term(*values)
    assert Term(*values) == Term(*values)


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, names, values, text):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, "new")
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, n) for n in names] == list(values)


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_exact_repr(cls, names, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, names, values, text, protocol):
    record = cls(*values)
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is cls and back == record and repr(back) == text


@pytest.mark.parametrize("cls", [Term, IntPolynomial])
def test_slotted_records_keep_no_dict(cls):
    _, _, values, _ = RECORDS[IDS.index(cls.__name__)]
    assert not hasattr(cls(*values), "__dict__")


def test_coset_max_levels_stay_out_of_equality_and_repr():
    values = RECORDS[0][2]
    level = ("x", frozenset({1}), "u", "v", frozenset(), 1, "p", "r", "q")
    bare = CosetMaxResult(*values)
    traced = CosetMaxResult(*values, (level,))
    assert traced == bare and hash(traced) == hash(bare)
    assert repr(traced) == repr(bare) == RECORDS[0][3]
    assert bare.trace == ()
    assert traced.trace == (TraceStep(*level),)
    assert CosetMaxResult(*values, _levels=(level,)).trace == traced.trace


def test_lazy_attributes_are_built_once():
    itv = Interval("w", (("e",), ("a", "b")))
    assert itv.poincare is itv.poincare
    assert itv.poincare == IntPolynomial((1, 2))
    res = CosetMaxResult(*RECORDS[0][2], (RECORDS[1][2],))
    assert res.trace is res.trace


def _results():
    """One real result of each record type, from A2."""
    S = coxeter_system("A2")
    w, x, top = S.element("s1 s2 s1"), S.element("s2"), S.element("s1 s2")
    res = max_in_coset(w, x, [0])
    return {
        "CosetMaxResult": res,
        "TraceStep": res.trace[0],
        "ShiftedMaxSet": shifted_max_set(w, [0]),
        "Term": decompose_poincare(w, [0]).terms[1],
        "PoincareDecomposition": decompose_poincare(top, [0]),
        "BPReport": bp_report(w, [0]),
        "Interval": lower_interval(top),
        "HasseGraph": hasse_graph(S.element("s1"), [0]),
        "ParabolicDecomposition": decompose(w, [0]),
        "IntPolynomial": lower_interval(w).poincare,
        "relative CosetMaxResult": max_in_relative_coset(top, S.identity, [0], [0, 1]),
    }


REAL_REPRS = {
    "CosetMaxResult": "CosetMaxResult(w=Element('s1 s2 s1'), x=Element('s2'), J=frozenset({0}),"
                      " maximum=Element('s2 s1'), shift=Element('s1'), K=None)",
    "TraceStep": "TraceStep(x=Element('s2'), left_descents=frozenset({1}), u=Element('s1'),"
                 " v=Element('s2 s1'), coset_stabilizers=frozenset(), s=1, prefix_max=Element('e'),"
                 " suffix_max=Element('s1'), maximum=Element('s2 s1'))",
    "ShiftedMaxSet": "ShiftedMaxSet(w=Element('s1 s2 s1'), J=frozenset({0}), pairs={Element('e'):"
                     " Element('s1'), Element('s2'): Element('s1'), Element('s1 s2'): Element('s1')},"
                     " values=frozenset({Element('s1')}))",
    "Term": "Term(x=Element('s2'), shift=IntPolynomial(coeffs=(0, 1)), shifted_max=Element('s1'),"
            " factor=IntPolynomial(coeffs=(1, 1)))",
    "PoincareDecomposition": "PoincareDecomposition(w=Element('s1 s2'), J=frozenset({0}), terms=("
                             "Term(x=Element('e'), shift=IntPolynomial(coeffs=(1,)), shifted_max="
                             "Element('s1'), factor=IntPolynomial(coeffs=(1, 1))), Term(x="
                             "Element('s2'), shift=IntPolynomial(coeffs=(0, 1)), shifted_max="
                             "Element('e'), factor=IntPolynomial(coeffs=(1,))), Term(x="
                             "Element('s1 s2'), shift=IntPolynomial(coeffs=(0, 0, 1)), shifted_max="
                             "Element('e'), factor=IntPolynomial(coeffs=(1,)))), total="
                             "IntPolynomial(coeffs=(1, 2, 1)), K=None, factorization=None)",
    "BPReport": "BPReport(w=Element('s1 s2 s1'), J=frozenset({0}), v=Element('s1 s2'),"
                " u=Element('s1'), parabolic_max=Element('s1'), is_bp=True, factorization="
                "(IntPolynomial(coeffs=(1, 1, 1)), IntPolynomial(coeffs=(1, 1))))",
    "Interval": "Interval(top=Element('s1 s2'), ranks=((Element('e'),), (Element('s1'),"
                " Element('s2')), (Element('s1 s2'),)))",
    "HasseGraph": "HasseGraph(interval=Interval(top=Element('s1'), ranks=((Element('e'),),"
                  " (Element('s1'),))), colors={Element('e'): 'black', Element('s1'): 'black'},"
                  " edges=((Element('e'), Element('s1')),))",
    "ParabolicDecomposition": "ParabolicDecomposition(v=Element('s1 s2'), u=Element('s1'),"
                              " side='right', J=frozenset({0}))",
    "IntPolynomial": "IntPolynomial(coeffs=(1, 2, 2, 1))",
    "relative CosetMaxResult": "CosetMaxResult(w=Element('s1 s2'), x=Element('e'), J=frozenset({0}),"
                               " maximum=Element('s1 s2'), shift=Element('s1 s2'), K=frozenset({0, 1}))",
}


def test_real_results_repr():
    assert {name: repr(r) for name, r in _results().items()} == REAL_REPRS


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_real_results_pickle(protocol):
    """A record of elements keeps its repr, and a CosetMaxResult keeps the levels
    its trace reads."""
    results = _results()
    back = pickle.loads(pickle.dumps(results, protocol))
    assert {name: repr(r) for name, r in back.items()} == REAL_REPRS
    for name, r in back.items():
        assert type(r) is type(results[name])
    trace = results["CosetMaxResult"].trace
    assert [repr(step) for step in back["CosetMaxResult"].trace] == [repr(step) for step in trace]
    assert back["Interval"].poincare == results["Interval"].poincare


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_elements_pickle_as_their_system_and_word(protocol):
    """An element pickles as its system's definition and its word, so no interned
    element or memo goes along: a result pickles to the same bytes whether or not
    the whole group was enumerated first, and its elements load into one new system
    with the same matrix, names and caps."""
    fresh, full = (coxeter_system("D5", length_cap=30, interval_cap=20) for _ in range(2))
    full.elements()
    dumps = [pickle.dumps(decompose_poincare(S.element("s1 s2 s3"), [0]), protocol)
             for S in (fresh, full)]
    assert dumps[0] == dumps[1]
    back = pickle.loads(dumps[1])
    S = back.w.system
    assert S is not full and S.rank == 5
    assert {t.x.system for t in back.terms} | {t.shifted_max.system for t in back.terms} == {S}
    assert (S.matrix, S.names, S.length_cap, S.interval_cap) == (full.matrix, full.names, 30, 20)
    assert back.w is S.element("s1 s2 s3")
    assert repr(back) == repr(decompose_poincare(full.element("s1 s2 s3"), [0]))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_system_pickles_with_its_names(protocol):
    S = CoxeterSystem([[1, 5], [5, 1]], names=["a", "b"], length_cap=7, interval_cap=3)
    w = pickle.loads(pickle.dumps(S.element("a b a"), protocol))
    T = w.system
    assert (T.matrix, T.names, T.length_cap, T.interval_cap) == (S.matrix, ("a", "b"), 7, 3)
    assert str(w) == "a b a" and w is T.element("a b") * T.generator(0)
