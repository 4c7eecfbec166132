"""Text formats: ".scx" complexes and ".chn" chains.

scx: one simplex per line as whitespace-separated vertex ids, optional
trailing "w <rational>"; '#' starts a comment; the face closure is implied.
chn: one line per simplex, "<coefficient> <vertex ids...>".
"""
from __future__ import annotations

from fractions import Fraction

from .complexes import Chain, SimplicialComplex, canon


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_scx(text: str) -> SimplicialComplex:
    simplices = []
    weights = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        tokens = line.split()
        if "w" in tokens:
            wi = tokens.index("w")
            verts, wtoks = tokens[:wi], tokens[wi + 1:]
            if len(wtoks) != 1:
                raise ParseError(lineno, "expected one weight after 'w'")
            try:
                weight = Fraction(wtoks[0])
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(lineno, f"bad weight {wtoks[0]!r}: {exc}")
            if weight < 0:
                raise ParseError(lineno, f"negative weight {weight}")
        else:
            verts, weight = tokens, None
        try:
            simplex = canon(int(t) for t in verts)
        except ValueError as exc:
            raise ParseError(lineno, f"bad simplex {line!r}: {exc}")
        simplices.append(simplex)
        if weight is not None:
            if simplex in weights:
                raise ParseError(lineno, f"simplex {simplex} is weighted twice")
            weights[simplex] = weight
    return SimplicialComplex.from_maximal(simplices, weights or None)


def serialize_scx(complex: SimplicialComplex) -> str:
    # in a face-closed set, a simplex is maximal iff it is no facet of another
    facets = {t[:j] + t[j + 1:] for t in complex.simplices
              for j in range(len(t))}
    lines = []
    for s in sorted((complex.simplices - facets) | set(complex.weights)):
        line = " ".join(str(v) for v in s)
        if s in complex.weights:
            line += f" w {complex.weights[s]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_chn(text: str) -> Chain:
    chain: Chain = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(lineno, "expected '<coeff> <vertex ids...>'")
        try:
            coeff = Fraction(tokens[0])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(lineno, f"bad coefficient {tokens[0]!r}: {exc}")
        if coeff.denominator == 1:
            coeff = int(coeff)
        try:
            simplex = canon(int(t) for t in tokens[1:])
        except ValueError as exc:
            raise ParseError(lineno, f"bad simplex: {exc}")
        c = chain.get(simplex, 0) + coeff
        if c:
            chain[simplex] = c
        else:
            chain.pop(simplex, None)
    return chain


def serialize_chn(chain: Chain) -> str:
    lines = [f"{Fraction(v)} " + " ".join(str(x) for x in s)
             for s, v in sorted(chain.items())]
    return "\n".join(lines) + "\n"
