"""Property-based tests of affine subscript analysis: render a random
affine form to AST text, re-analyze, recover the same coefficients."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.references import analyze_subscript
from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser

VARS = ["i", "j", "k"]


def expr_of(text):
    return Parser(tokenize(text))._parse_expr()


@st.composite
def affine_form(draw):
    coeffs = {}
    for var in VARS:
        if draw(st.booleans()):
            c = draw(st.integers(min_value=-9, max_value=9))
            if c != 0:
                coeffs[var] = c
    const = draw(st.integers(min_value=-20, max_value=20))
    return coeffs, const


def render(coeffs, const):
    """Spell the affine form as Fortran expression text (several
    equivalent spellings chosen arbitrarily but deterministically)."""
    parts = []
    for var, c in sorted(coeffs.items()):
        if c == 1:
            parts.append(f"+ {var}")
        elif c == -1:
            parts.append(f"- {var}")
        elif c > 0:
            parts.append(f"+ {c} * {var}")
        else:
            parts.append(f"- {abs(c)} * {var}")
    parts.append(f"+ {const}" if const >= 0 else f"- {abs(const)}")
    text = " ".join(parts)
    if text.startswith("+ "):
        text = text[2:]
    elif text.startswith("- "):
        text = "-" + text[2:]
    return text


@settings(max_examples=120, deadline=None)
@given(form=affine_form())
def test_analysis_recovers_coefficients(form):
    coeffs, const = form
    aff = analyze_subscript(expr_of(render(coeffs, const)))
    assert aff.affine
    assert dict(aff.coeffs) == coeffs
    assert aff.const == const


@settings(max_examples=80, deadline=None)
@given(form=affine_form(), other=affine_form())
def test_sum_of_affine_is_affine(form, other):
    (c1, k1), (c2, k2) = form, other
    text = f"({render(c1, k1)}) + ({render(c2, k2)})"
    aff = analyze_subscript(expr_of(text))
    assert aff.affine
    expected = dict(c1)
    for var, c in c2.items():
        expected[var] = expected.get(var, 0) + c
    expected = {v: c for v, c in expected.items() if c != 0}
    assert dict(aff.coeffs) == expected
    assert aff.const == k1 + k2


@settings(max_examples=80, deadline=None)
@given(form=affine_form(), factor=st.integers(min_value=-5, max_value=5))
def test_constant_multiple_scales(form, factor):
    coeffs, const = form
    text = f"{factor} * ({render(coeffs, const)})"
    aff = analyze_subscript(expr_of(text))
    assert aff.affine
    expected = {
        v: c * factor for v, c in coeffs.items() if c * factor != 0
    }
    assert dict(aff.coeffs) == expected
    assert aff.const == const * factor


@settings(max_examples=60, deadline=None)
@given(form=affine_form())
def test_negation_flips_everything(form):
    coeffs, const = form
    aff = analyze_subscript(expr_of(f"-({render(coeffs, const)})"))
    assert aff.affine
    assert dict(aff.coeffs) == {v: -c for v, c in coeffs.items()}
    assert aff.const == -const


@settings(max_examples=60, deadline=None)
@given(form=affine_form(), constants=st.dictionaries(
    st.sampled_from(["n", "m"]), st.integers(min_value=1, max_value=64),
    max_size=2,
))
def test_parameter_substitution_folds(form, constants):
    coeffs, const = form
    text = render(coeffs, const)
    for name, value in constants.items():
        text = f"{text} + {name}"
    aff = analyze_subscript(expr_of(text), constants=constants)
    assert aff.affine
    assert aff.const == const + sum(constants.values())
    assert dict(aff.coeffs) == coeffs
