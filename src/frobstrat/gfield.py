"""Exact arithmetic in small finite fields GF(p^m) and projective planes over them.

Coefficient vectors are little-endian: ``(c0, c1)`` encodes ``c0 + c1*x``, and
an element's index is ``c0 + c1*p + ...``.  Every field precomputes its full
q x q operation tables at construction: addition one base-p digit at a time,
multiplication and inverses from the discrete logarithms of one generator.  The
only polynomial products taken are the powers of the elements tried as that
generator, about q of them rather than one per pair.  The fields are small:
``FieldSpec`` refuses one of more than ``_MAX_Q`` = 3^6 = 729 elements before
it builds anything.  Element arithmetic is a table lookup, and all linear
algebra built on top stays exact.
"""

from functools import lru_cache
from itertools import chain, product

from ._record import Record, _set

__all__ = [
    "FieldElement",
    "FieldSpec",
    "ProjectivePoint",
    "field_make",
    "projective_plane",
]


# largest p the package takes, the library and the CLI alike: primality is tested
# by trial division up to sqrt(p), and certify --r p prints a row per subrank
_MAX_P = 10_000


def _check_p_ceiling(p):
    """Refuse an int p above _MAX_P, before its primality is tested."""
    if isinstance(p, int) and p > _MAX_P:
        raise ValueError(f"p = {p} is above the ceiling {_MAX_P} for trial division")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _poly_rem(a, mod, p):
    """Remainder of ``a`` modulo a monic polynomial, coefficients mod p."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for k in range(dm + 1):
                a[i - dm + k] = (a[i - dm + k] - c * mod[k]) % p
    del a[dm:]
    return a


def _is_irreducible(coeffs, p):
    """Exhaustive trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(coeffs) - 1
    for div_deg in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=div_deg):
            divisor = tail + (1,)
            if not any(_poly_rem(coeffs, divisor, p)):
                return False
    return True


def _default_modulus(p, m):
    """Lexicographically smallest monic irreducible of degree m over GF(p)."""
    for tail in product(range(p), repeat=m):
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible degree-{m} polynomial over GF({p})")


def _poly_str(coeffs):
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            x = "x" if k == 1 else f"x^{k}"
            terms.append(x if c == 1 else f"{c}{x}")
    return " + ".join(terms) if terms else "0"


# the largest field built, 3^6: its tables took 0.1 s to a 32 MB peak, 3^7's 1.75 s and 207 MB
_MAX_Q = 3 ** 6


class FieldSpec(Record):
    """A finite field GF(p^m) with interned elements and full lookup tables.

    The modulus is derived from (p, m), so two specs compare equal iff they
    have the same p and m; arithmetic between elements of unequal specs is a
    hard error, never a coercion.
    """

    __match_args__ = ("p", "m")
    __slots__ = __match_args__ + ("modulus", "q", "elements", "zero", "one", "_coeff_index",
                                  "_add", "_mul", "_neg", "_inv", "_names")

    def __init__(self, p, m=1):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"characteristic must be a prime integer, got {p!r}")
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"extension degree must be a positive integer, got {m!r}")
        # 2^m exceeds _MAX_Q from m = its bit length on, so p ** m is taken for small m only
        if m >= _MAX_Q.bit_length() or p ** m > _MAX_Q:
            raise ValueError(f"q = {p}^{m} is above the ceiling {_MAX_Q}: the field would "
                             "build q x q addition and multiplication tables")
        if not _is_prime(p):
            raise ValueError(f"characteristic must be a prime integer, got {p!r}")
        _set(self, "p", p)
        _set(self, "m", m)
        _set(self, "modulus", None if m == 1 else _default_modulus(p, m))
        _set(self, "q", p ** m)
        self._build_tables()

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        coeffs_of = [tuple(i // p ** k % p for k in range(m)) for i in range(q)]
        _set(self, "elements", tuple(FieldElement(self, c, i) for i, c in enumerate(coeffs_of)))
        _set(self, "zero", self.elements[0])
        _set(self, "one", self.elements[1])
        _set(self, "_coeff_index", {c: i for i, c in enumerate(coeffs_of)})

        # index a holds the base-p digits of a's coefficients, so addition and
        # negation act on the lowest digit mod p and on the rest by the table
        # one digit shorter
        add, neg = [[0]], [0]
        for n in (p ** k for k in range(1, m + 1)):
            add = [[(a + b) % p + p * add[a // p][b // p] for b in range(n)]
                   for a in range(n)]
            neg = [-a % p + p * neg[a // p] for a in range(n)]

        # the powers of a generator, the first element in index order whose
        # order is q - 1, are its antilogarithms: one product per power.  A
        # prime field reduces modulo x, which leaves a constant as it is.
        mod, one = self.modulus or (0, 1), [1] + [0] * (m - 1)
        for gen in coeffs_of[1:]:
            exp, power = [1], list(gen)
            while power != one:
                exp.append(self._coeff_index[tuple(power)])
                power = _poly_rem(_poly_mul(power, gen, p), mod, p)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for k, a in enumerate(exp):
            log[a] = k
        logs = log[1:]  # of the units 1 .. q - 1, in index order
        exp2 = exp + exp  # log a + log b < 2(q - 1)
        mul = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        inv = [None] + [exp[-la] for la in logs]  # g^-l is g^(q - 1 - l)
        _set(self, "_add", add)
        _set(self, "_mul", mul)
        _set(self, "_neg", neg)
        _set(self, "_inv", inv)

    def element(self, value):
        """Intern an element from an int (constant) or a coefficient sequence."""
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.m - 1)
        else:
            vals = [int(c) % self.p for c in value]
            if len(vals) > self.m:
                raise ValueError(f"coefficient vector longer than extension degree {self.m}")
            coeffs = tuple(vals) + (0,) * (self.m - len(vals))
        return self.elements[self._coeff_index[coeffs]]

    @property
    def names(self):
        """Each element's polynomial text, by index, built on first use."""
        if not hasattr(self, "_names"):
            _set(self, "_names", tuple(_poly_str(c.coeffs) for c in self.elements))
        return self._names

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m}; {_poly_str(self.modulus)})"


class FieldElement(Record):
    """Immutable element of a :class:`FieldSpec`; all operations are table lookups."""

    __slots__ = __match_args__ = ("spec", "coeffs", "index")

    def __init__(self, spec, coeffs, index):
        _set(self, "spec", spec)
        _set(self, "coeffs", coeffs)
        _set(self, "index", index)

    def __bool__(self):
        return self.index != 0

    def _lookup(self, table, other):
        """The element at (self, other) of one of the field's q x q tables."""
        if not isinstance(other, FieldElement):
            return NotImplemented
        # identity first: != would run the Python-level Record.__eq__
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError(f"mixed-field arithmetic between {self.spec!r} and {other.spec!r}")
        return self.spec.elements[table[self.index][other.index]]

    def __add__(self, other):
        return self._lookup(self.spec._add, other)

    def __neg__(self):
        return self.spec.elements[self.spec._neg[self.index]]

    def __mul__(self, other):
        return self._lookup(self.spec._mul, other)

    def inverse(self):
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.index == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.spec!r}")
        return self.spec.elements[self.spec._inv[self.index]]

    def __repr__(self):
        return f"{_poly_str(self.coeffs)} in {self.spec!r}"


class ProjectivePoint(Record):
    """A point of P^2, normalized so the first nonzero coordinate is 1.

    Normalization is canonical: two equal points carry identical coordinate
    tuples, so points hash and compare by value.
    """

    __slots__ = __match_args__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if len(coords) != 3:
            raise ValueError("projective points here live in P^2: need 3 coordinates")
        spec = coords[0].spec if isinstance(coords[0], FieldElement) else None
        for c in coords:
            # identity first: != would run the Python-level Record.__eq__
            if not isinstance(c, FieldElement) or (c.spec is not spec and c.spec != spec):
                raise ValueError("coordinates must all belong to one field")
        pivot = coords[0] or coords[1] or coords[2]
        if not pivot:
            raise ValueError("projective point needs a nonzero coordinate")
        if pivot.index != 1:
            coords = tuple(c * pivot.inverse() for c in coords)
        _set(self, "coords", coords)

    @classmethod
    def of(cls, spec, values):
        """Build a point from ints or coefficient lists."""
        return cls(tuple(spec.element(v) for v in values))

    @property
    def spec(self):
        return self.coords[0].spec

    def __repr__(self):
        return _point_text(self.spec.names, [c.index for c in self.coords])


def _point_text(names, h):
    """The text of the plane point whose coordinates have element indices h."""
    return f"[{names[h[0]]} : {names[h[1]]} : {names[h[2]]}]"


def field_make(p, m=1):
    """GF(p^m) over the lexicographically smallest monic irreducible modulus of
    degree m, so repeated runs agree: built by the first call for (p, m), however
    the call is written, and shared by every later one in the process;
    FieldSpec(p, m) builds a new field."""
    return _fields(p, m)


# keyed on (p, m) as field_make passes them; typed: 3.0 == 3 must still be refused
_fields = lru_cache(maxsize=None, typed=True)(FieldSpec)


def _plane_indices(q):
    """Element-index triples of the q^2 + q + 1 points of P^2 over GF(q), each with
    first nonzero index 1: (1, y, z), then (0, 1, z), then (0, 0, 1), y and z ascending."""
    return chain(product((1,), range(q), range(q)), product((0,), (1,), range(q)), [(0, 0, 1)])


def projective_plane(spec):
    """All q^2 + q + 1 points of P^2 over the field, in _plane_indices's order."""
    return [ProjectivePoint([spec.elements[i] for i in h]) for h in _plane_indices(spec.q)]
