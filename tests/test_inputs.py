"""Every public entry point refuses wrongly typed input with a
CalculatorError: a float, str, None, bool, list or dict where a count or a
Betti map belongs never ends in a TypeError, and never runs as some other
input."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confighom import (
    CalculatorError,
    FieldChar,
    InvalidInputError,
    ProblemSpec,
    ab_coherence_report,
    basic_words,
    factor_product,
    hilton_milnor_check,
    preset,
    theorem_a,
    theorem_b,
)
from confighom.loops import normalize_betti, require_int

F2 = FieldChar.mod2()

# small ints keep every run that gets past the checks short.  Each call
# draws its arguments in range, so that many runs solve, and then puts junk
# in up to two of them
INTS = st.integers(-2, 10)
INT_BETTI = st.dictionaries(INTS, INTS, max_size=3)
SIZES = st.integers(0, 10)
SMALL_BETTI = st.dictionaries(st.integers(0, 4), st.integers(0, 3), max_size=3)
LABELS = st.dictionaries(st.integers(1, 4), st.integers(1, 2), min_size=1, max_size=2)
FIELDS = st.sampled_from([FieldChar(0), F2, FieldChar(3)])
SCALARS = st.one_of(INTS, st.floats(), st.text(max_size=2), st.none(), st.booleans())
BETTI = st.one_of(INT_BETTI, st.dictionaries(SCALARS, SCALARS, max_size=3))
VALUES = st.one_of(SCALARS, BETTI, st.lists(st.one_of(SCALARS, BETTI), max_size=3))


def calls(**shapes):
    """Keyword arguments of the given shapes, up to two of them junk."""
    return st.builds(
        lambda args, junk: dict(args, **junk),
        st.fixed_dictionaries(shapes),
        st.dictionaries(st.sampled_from(sorted(shapes)), VALUES, max_size=2),
    )


def refused_or_run(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except CalculatorError:
        pass


@settings(max_examples=400, deadline=None)
@given(
    calls(
        m_dim=st.integers(0, 4),
        rel_betti=SMALL_BETTI,
        n=st.integers(1, 4),
        x_betti=SMALL_BETTI,
        char=FIELDS,
        max_degree=SIZES,
        max_weight=st.one_of(st.none(), SIZES),
    ),
    st.sampled_from([theorem_a, theorem_b]),
)
def test_property_theorems_let_only_calculator_errors_escape(fields, theorem):
    refused_or_run(theorem, ProblemSpec(**fields))


@settings(max_examples=300, deadline=None)
@given(
    calls(
        m_dim=st.integers(0, 4),
        rel_betti=SMALL_BETTI,
        x_list=st.lists(LABELS, min_size=1, max_size=3),
        max_degree=SIZES,
        char=st.one_of(st.none(), FIELDS),
        orientable=st.booleans(),
    )
)
def test_property_hilton_lets_only_calculator_errors_escape(args):
    refused_or_run(hilton_milnor_check, **args)


@settings(max_examples=300, deadline=None)
@given(
    VALUES,
    BETTI,
    calls(
        name=st.sampled_from(["sphere", "torus", "surface", "rp", "cube", "point"]),
        char=st.one_of(st.none(), FIELDS),
    ),
    st.one_of(
        st.fixed_dictionaries({"m": SIZES}),
        st.fixed_dictionaries({"genus": SIZES}),
        st.dictionaries(st.sampled_from(["m", "genus", "d"]), VALUES, max_size=2),
    ),
    calls(seed=SIZES, trials=st.integers(0, 3), max_degree=SIZES),
)
def test_property_small_entry_points_let_only_calculator_errors_escape(
    p, betti, preset_args, params, ab_args
):
    refused_or_run(FieldChar, p)
    refused_or_run(normalize_betti, betti)
    refused_or_run(preset, **preset_args, **params)
    refused_or_run(ab_coherence_report, **ab_args)


def spec(**fields):
    base = dict(
        m_dim=1, rel_betti={0: 1}, n=1, x_betti={2: 1}, char=F2,
        max_degree=10, max_weight=5,
    )
    return ProblemSpec(**dict(base, **fields))


WEDGE = [{2: 1}, {3: 1}]


# each of these ended in a TypeError or AttributeError, or ran as some other
# input, before the library checked its own ints
PROBES = {
    "theorem_a max_degree=10.5": lambda: theorem_a(spec(max_degree=10.5)),
    "theorem_a max_degree='10'": lambda: theorem_a(spec(max_degree="10")),
    "theorem_a m_dim=1.0": lambda: theorem_a(spec(m_dim=1.0)),
    "theorem_a char=2": lambda: theorem_a(spec(char=2)),
    "theorem_a x_betti=[2]": lambda: theorem_a(spec(x_betti=[2])),
    "theorem_a n=True": lambda: theorem_a(spec(n=True)),
    "theorem_b max_weight=2.0": lambda: theorem_b(spec(max_weight=2.0)),
    "hilton max_degree=5.0": lambda: hilton_milnor_check(1, {0: 1}, WEDGE, 5.0),
    "hilton max_degree=None": lambda: hilton_milnor_check(1, {0: 1}, WEDGE, None),
    "hilton m_dim=True": lambda: hilton_milnor_check(True, {0: 1}, WEDGE, 5),
    "hilton orientable='no'": lambda: hilton_milnor_check(
        1, {0: 1}, WEDGE, 5, orientable="no"
    ),
    "basic_words r=True": lambda: basic_words(True, 2),
    "basic_words r=0": lambda: basic_words(0, 2),
    "basic_words max_length='3'": lambda: basic_words(2, "3"),
    "basic_words max_length=3.0": lambda: basic_words(2, 3.0),
    "basic_words max_length=-1": lambda: basic_words(2, -1),
    "ab trials=2.5": lambda: ab_coherence_report(0, 2.5, 10),
    "ab max_degree='x'": lambda: ab_coherence_report(0, 2, "x"),
    "ab seed='x'": lambda: ab_coherence_report("x", 2, 10),
    "normalize_betti bools": lambda: normalize_betti({2: True, True: 1}),
    "preset cube m=True": lambda: preset("cube", m=True),
    "factor_product char=2": lambda: factor_product(1, {0: 1}, 1, {2: 1}, 2, 10, 5),
    "factor_product max_degree=1.5": lambda: factor_product(
        1, {0: 1}, 1, {2: 1}, F2, 1.5, 5
    ),
    "factor_product m_dim=None": lambda: factor_product(
        None, {0: 1}, 1, {2: 1}, F2, 10, 5
    ),
    "factor_product n=True": lambda: factor_product(1, {0: 1}, True, {2: 1}, F2, 10, 5),
}


@pytest.mark.parametrize("probe", list(PROBES))
def test_probes_of_wrongly_typed_input_are_refused(probe):
    with pytest.raises(InvalidInputError):
        PROBES[probe]()


@pytest.mark.parametrize("value", [True, False, 1.0, "1", None, -1])
def test_require_int_refuses_all_but_an_int_at_its_minimum(value):
    with pytest.raises(InvalidInputError, match=r"^count must be an int >= 0$"):
        require_int(value, "count")
    assert require_int(3, "count") == 3
    with pytest.raises(InvalidInputError, match=r"^n must be an int >= 1$"):
        require_int(0, "n", minimum=1)
