import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plink.complexes import SimplicialComplex
from plink.fixtures import mobius, random_complex
from plink.scxio import (ParseError, parse_chn, parse_scx, serialize_chn,
                         serialize_scx)


def test_parse_scx_basic():
    cx = parse_scx("0 1 2\n2 3\n")
    assert (0, 1, 2) in cx.simplices
    assert (2, 3) in cx.simplices
    assert cx.dim == 2


def test_parse_scx_comments_and_blanks():
    cx = parse_scx("# header\n\n0 1 2  # a triangle\n")
    assert cx.dim == 2


def test_parse_scx_weights():
    cx = parse_scx("0 1 w 1/20\n1 2 w 3\n")
    assert cx.weight((0, 1)) == Fraction(1, 20)
    assert cx.weight((1, 2)) == 3


def test_parse_scx_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_scx("0 1\nx y\n")
    assert err.value.lineno == 2
    with pytest.raises(ParseError):
        parse_scx("0 1 w -1\n")
    with pytest.raises(ParseError):
        parse_scx("0 1 w 1 2\n")
    with pytest.raises(ParseError):
        parse_scx("0 1 w 1/0\n")


@given(st.integers(0, 5000))
def test_scx_round_trip(seed):
    r = random.Random(seed)
    cx = random_complex(r, n_vertices=8, max_dim=3, n_generators=5)
    if r.random() < 0.5 and cx.edges:
        cx = SimplicialComplex(
            cx.simplices,
            {e: Fraction(r.randint(1, 9), r.randint(1, 9))
             for e in cx.edges})
    assert parse_scx(serialize_scx(cx)) == cx


def test_serialize_scx_writes_maximal_and_weighted_simplices():
    r = random.Random(31)
    for _ in range(60):
        cx = random_complex(r, n_vertices=8, max_dim=4, n_generators=6)
        p = r.randint(0, cx.dim)
        cx = SimplicialComplex(cx.simplices,
                               {s: r.randint(0, 3) for s in cx.p_simplices(p)
                                if r.random() < 0.3})
        maximal = {s for s in cx.simplices
                   if not any(set(s) < set(t) for t in cx.simplices)}
        lines = [line.split(" w ") for line in
                 serialize_scx(cx).splitlines()]
        assert [tuple(map(int, line[0].split())) for line in lines] == sorted(
            maximal | set(cx.weights))
        assert {tuple(map(int, line[0].split())): Fraction(line[1])
                for line in lines if len(line) == 2} == cx.weights


def test_parse_chn_basic():
    chain = parse_chn("1 0 1\n-2 1 2\n1/2 0 2\n")
    assert chain == {(0, 1): 1, (1, 2): -2, (0, 2): Fraction(1, 2)}
    assert isinstance(chain[(0, 1)], int)


def test_parse_chn_merges_duplicate_lines():
    assert parse_chn("1 0 1\n-1 0 1\n") == {}
    assert parse_chn("1 0 1\n2 1 0\n") == {(0, 1): 3}


def test_parse_scx_rejects_a_second_weight():
    # the second weight once silently replaced the first
    with pytest.raises(ParseError, match="weighted twice") as err:
        parse_scx("0 1 w 1/2\n1 2\n1 0 w 3\n")
    assert err.value.lineno == 3
    with pytest.raises(ParseError, match="weighted twice"):
        parse_scx("0 1 w 1\n0 1 w 1\n")
    cx = parse_scx("0 1 w 1/2\n0 1\n")
    assert cx.weight((0, 1)) == Fraction(1, 2)


def test_parse_errors_name_the_vertices():
    for parse, text, message in (
            (parse_scx, "0 0 1\n", "duplicate vertices in (0, 0, 1)"),
            (parse_scx, "2 -1\n", "negative vertex id in (-1, 2)"),
            (parse_chn, "1 2 2\n", "duplicate vertices in (2, 2)")):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert message in str(err.value)
        assert "generator" not in str(err.value)


def test_parse_chn_errors():
    with pytest.raises(ParseError):
        parse_chn("1\n")
    with pytest.raises(ParseError):
        parse_chn("x 0 1\n")
    with pytest.raises(ParseError):
        parse_chn("1 0 0\n")


@given(st.dictionaries(
    st.sets(st.integers(0, 9), min_size=2, max_size=2).map(
        lambda s: tuple(sorted(s))),
    st.one_of(st.integers(-5, 5).filter(bool),
              st.fractions(min_value=-3, max_value=3).filter(bool)),
    max_size=6))
def test_chn_round_trip(chain):
    assert parse_chn(serialize_chn(chain)) == chain


def test_serialize_scx_emits_maximal_simplices_only():
    text = serialize_scx(mobius(5))
    lines = [l for l in text.splitlines() if l]
    assert all(len(l.split()) == 3 for l in lines)
    assert len(lines) == 5
