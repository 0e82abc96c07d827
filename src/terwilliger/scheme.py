"""Scheme parameters, bitmask calculus, valencies, and intersection numbers.

Relations of a factorial scheme on a product of n finite sets are indexed
by subsets of the coordinate set [1, n].  A subset is stored as an n-bit
integer where bit a-1 stands for coordinate a.  Externally masks render as
length-n bitstrings with coordinate 1 leftmost, so integer 1 on a scheme
with n=2 prints as "10".  Docstrings write large for the spec's large_mask,
the coordinates whose factor has more than two elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from fractions import Fraction
from functools import cached_property
from typing import Union

Mask = int
Scalar = Union[int, Fraction]

MAX_FACTORS = 20


# Bases of a Miller-Rabin test that decides primality exactly for every number
# below MAX_CHARACTERISTIC (Sorenson and Webster, 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; exact for m below MAX_CHARACTERISTIC."""
    if m < 2:
        return False
    for a in _WITNESSES:
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class GroundField:
    """Exact arithmetic in the prime field F_p, or in Q when characteristic is 0.

    Scalars are plain ints in [0, p) for prime characteristic and
    fractions.Fraction values in characteristic 0.  No floats anywhere.
    """

    def __init__(self, characteristic: int) -> None:
        if characteristic >= MAX_CHARACTERISTIC:
            raise ValueError(
                f"characteristic {characteristic} is not below {MAX_CHARACTERISTIC},"
                " the bound up to which primality is decided exactly"
            )
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        self.characteristic = characteristic

    def of(self, value: Scalar) -> Scalar:
        """The canonical field element for an int, or for a Fraction in characteristic 0.

        Ints reduce to [0, p) in characteristic p and become Fractions in
        characteristic 0.  Floats and every other type are refused.
        """
        if isinstance(value, int):
            return value % self.characteristic if self.characteristic else Fraction(value)
        if isinstance(value, Fraction) and not self.characteristic:
            return value
        raise ValueError(f"{value!r} is not an exact scalar of {self!r}")

    def zero(self) -> Scalar:
        return self.of(0)

    def one(self) -> Scalar:
        return self.of(1)

    def add(self, x: Scalar, y: Scalar) -> Scalar:
        if self.characteristic:
            return (x + y) % self.characteristic
        return x + y

    def sub(self, x: Scalar, y: Scalar) -> Scalar:
        if self.characteristic:
            return (x - y) % self.characteristic
        return x - y

    def mul(self, x: Scalar, y: Scalar) -> Scalar:
        if self.characteristic:
            return (x * y) % self.characteristic
        return x * y

    def neg(self, x: Scalar) -> Scalar:
        if self.characteristic:
            return (-x) % self.characteristic
        return -x

    def inv(self, x: Scalar) -> Scalar:
        if self.is_zero(x):
            raise ZeroDivisionError("scalar is not invertible")
        if self.characteristic:
            return pow(x, -1, self.characteristic)
        return Fraction(1) / Fraction(x)

    def is_zero(self, x: Scalar) -> bool:
        return x == 0

    def render(self, x: Scalar) -> str:
        """Serialize a scalar: decimal residue, or "num/den" with unit denominators shortened."""
        if self.characteristic:
            return str(x)
        frac = Fraction(x)
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"

    def parse(self, text: str) -> Scalar:
        return self.of(int(text, 10)) if self.characteristic else Fraction(text)

    def p_divides(self, value: int) -> bool:
        """Whether the characteristic divides an integer (false for everything but 0 in char 0)."""
        if self.characteristic:
            return value % self.characteristic == 0
        return value == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundField) and other.characteristic == self.characteristic

    def __hash__(self) -> int:
        return hash(("GroundField", self.characteristic))

    def __repr__(self) -> str:
        return f"GroundField({self.characteristic})"


@dataclass(frozen=True)
class SchemeSpec:
    """A factorial scheme on a product of factors plus the scalar characteristic.

    sizes[a-1] is the cardinality of factor a; each must be at least 2.
    characteristic is 0 (exact rationals) or a prime.
    """

    sizes: tuple[int, ...]
    characteristic: int = 0
    field: GroundField = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for value in (*self.sizes, self.characteristic):
            if not hasattr(type(value), "__index__"):
                raise ValueError(f"sizes and the characteristic must be integers, got {value!r}")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "characteristic", int(self.characteristic))
        if not self.sizes:
            raise ValueError("at least one factor is required")
        if len(self.sizes) > MAX_FACTORS:
            raise ValueError(f"at most {MAX_FACTORS} factors are supported, got {len(self.sizes)}")
        if any(s < 2 for s in self.sizes):
            raise ValueError(f"every factor size must be at least 2, got {self.sizes}")
        object.__setattr__(self, "field", GroundField(self.characteristic))

    @cached_property
    def n(self) -> int:
        return len(self.sizes)

    @cached_property
    def full_mask(self) -> Mask:
        return (1 << self.n) - 1

    @cached_property
    def large_mask(self) -> Mask:
        """Mask of the coordinates whose factor has more than two elements."""
        return sum(1 << a for a, size in enumerate(self.sizes) if size > 2)

    @cached_property
    def qualifying_mask(self) -> Mask:
        """Mask of the coordinates whose factor size is 1 mod the characteristic; 0 in char 0."""
        return sum(1 << a for a, size in enumerate(self.sizes) if self.p_divides(size - 1))

    @property
    def n1(self) -> int:
        return sum(1 for s in self.sizes if s == 2)

    @property
    def n2(self) -> int:
        return sum(1 for s in self.sizes if s > 2)

    @property
    def num_points(self) -> int:
        points = 1
        for s in self.sizes:
            points *= s
        return points

    def check_mask(self, m: Mask) -> Mask:
        if type(m) is not int:  # a float, bool or numpy mask is refused, as by algebra.check_triple
            raise ValueError(f"mask {m!r} is not an int")
        if not 0 <= m <= self.full_mask:
            raise ValueError(f"mask {m} is out of range for n={self.n}")
        return m

    def p_divides(self, value: int) -> bool:
        return self.field.p_divides(value)


def render_mask(m: Mask, n: int) -> str:
    return format(m, f"0{n}b")[:-n - 1:-1]


def parse_mask(text: str, n: int) -> Mask:
    if len(text) != n or text.strip("01"):  # one C-level scan: any other character is left over
        raise ValueError(f"expected a length-{n} bitstring, got {text!r}")
    return int(text[::-1], 2)


def submasks(m: Mask) -> list[Mask]:
    """Every submask of m, in canonical order.

    The canonical order is lexicographic on rendered bitstrings, and every
    enumeration in the package is built from this function rather than
    sorted.  It compares bit 0 first, so the submasks double up from
    the highest set bit down: each bit splits the list built so far into a
    copy without it and, after that, a copy with it.  The order does not
    depend on n, since bits outside m are clear in every submask.
    """
    subs = [0]
    for a in reversed(range(m.bit_length())):
        if (m >> a) & 1:
            subs += [s | 1 << a for s in subs]
    return subs


def all_masks(spec: SchemeSpec) -> list[Mask]:
    """Every coordinate mask, in canonical order."""
    return submasks(spec.full_mask)


def subset_of(spec: SchemeSpec, g: Mask, h: Mask) -> bool:
    return spec.check_mask(g) & ~spec.check_mask(h) == 0


def valency(spec: SchemeSpec, g: Mask) -> int:
    """Number of points related to any fixed point under relation g, as an exact integer."""
    spec.check_mask(g)
    k = 1
    for a, size in enumerate(spec.sizes):
        if (g >> a) & 1:
            k *= size - 1
    return k


def p_divides_valency(spec: SchemeSpec, g: Mask) -> bool:
    """Whether the characteristic divides the valency of g.

    A prime divides the product of the factors s - 1 over g iff it divides
    one of them, i.e. iff g meets the qualifying mask.  No factor is 0, so
    nothing qualifies in characteristic 0.
    """
    return spec.check_mask(g) & spec.qualifying_mask != 0


def is_basis_triple(spec: SchemeSpec, g: Mask, h: Mask, i: Mask) -> bool:
    """Whether (g, h, i) indexes a basis element, i.e. g^i <= h <= (g^i) | (g & i & large)."""
    spec.check_mask(g)
    spec.check_mask(h)
    spec.check_mask(i)
    lo = g ^ i
    return (lo & ~h | h & ~(lo | (g & i & spec.large_mask))) == 0


def bracket(spec: SchemeSpec, g: Mask, h: Mask, i: Mask, j: Mask, k: Mask) -> Mask:
    """The five-argument mask combination steering products of basis elements.

    Support is (g symdiff k), plus g & k & large outside i, plus the part of
    (h union j) inside g & i & k & large.  The result always lies between
    g symdiff k and mask_product(g, k).
    """
    for m in (g, h, i, j, k):
        spec.check_mask(m)
    return _bracket(spec.large_mask, g, h, i, j, k)


def _bracket(large: Mask, g: Mask, h: Mask, i: Mask, j: Mask, k: Mask) -> Mask:
    """bracket on masks already known to be in range; large is the spec's large_mask."""
    return (g ^ k) | ((g & k & large) & ~i) | ((h | j) & (g & i & k & large))


def mask_product(spec: SchemeSpec, g: Mask, h: Mask) -> Mask:
    """The maximum middle mask compatible with outer pair (g, h)."""
    return bracket(spec, g, spec.full_mask, spec.full_mask, spec.full_mask, h)


def intersection_number(spec: SchemeSpec, g: Mask, h: Mask, i: Mask) -> int:
    """Count of points z with (x, z) in relation g and (z, y) in relation h, given (x, y) in relation i.

    Computed coordinatewise: each factor of size s contributes 1 for the
    patterns (0,0,0), (0,1,1), (1,0,1), contributes s-1 for (1,1,0) and
    s-2 for (1,1,1), and kills the product for any other pattern, i.e.
    wherever g ^ h ^ i is set outside g & h & i.
    """
    spec.check_mask(g)
    spec.check_mask(h)
    spec.check_mask(i)
    ghi = g & h & i
    if (g ^ h ^ i) & ~ghi:
        return 0
    count = valency(spec, g & h & ~i)
    for a, size in enumerate(spec.sizes):
        if (ghi >> a) & 1:
            count *= size - 2
    return count


def layer_count(spec: SchemeSpec, g: Mask, h: Mask) -> int:
    """Number of coordinates in g minus h whose factor size is not 1 mod the characteristic."""
    return (spec.check_mask(g) & ~spec.check_mask(h) & ~spec.qualifying_mask).bit_count()


def layer(spec: SchemeSpec, g: Mask, h: Mask, i: int) -> list[Mask]:
    """Masks a with h <= a <= g, valency prime to the characteristic, and |a minus h| = i.

    Requires h <= g, the valency of h prime to the characteristic, and
    0 <= i <= layer_count(g, h).  Layer 0 is always exactly [h].  Since h
    avoids the qualifying coordinates, a does exactly when a minus h does.
    """
    if not subset_of(spec, h, g):
        raise ValueError("layer requires the base mask to sit inside the top mask")
    if p_divides_valency(spec, h):
        raise ValueError("layer requires the base mask valency to be prime to the characteristic")
    if not 0 <= i <= layer_count(spec, g, h):
        raise ValueError(f"layer index {i} is out of range")
    return [h | sub for sub in submasks(g & ~h & ~spec.qualifying_mask) if sub.bit_count() == i]
