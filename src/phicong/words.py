"""Words in the modular group, the representation phi, and membership tests.

SL2(Z) is generated by S = (0 -1; 1 0) and T = (1 1; 0 1).  The
representation phi sends T to diag(zeta, 1/zeta) and S to
(-zeta^3, 1; 0, zeta^3); its image consists of the upper-triangular
matrices (u, u*v; 0, 1/u) with u a twelfth root of unity and
v in Z*zeta + Z*zeta^3, which PhiImage stores as integer coordinates.
Words are composed and membership is decided in those coordinates; no
matrix over Q(zeta_12) is formed (the tests' oracle multiplies them out).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError
from .rationals import require_gp_prime, require_int


class Word:
    """A normalized word in the generators S, T.

    Stored as syllables (generator, exponent) with nonzero exponents and
    distinct adjacent generators; the empty word is the identity.
    """

    __slots__ = ("syllables",)

    def __init__(self, syllables: Sequence[Tuple[str, int]] = ()):
        out: List[Tuple[str, int]] = []
        for gen, exp in syllables:
            if gen not in ("S", "T"):
                raise DomainError(f"unknown generator {gen!r}")
            require_int(exp, "exponent")
            if exp == 0:
                continue
            if out and out[-1][0] == gen:
                merged = out[-1][1] + exp
                out.pop()
                if merged:
                    out.append((gen, merged))
            else:
                out.append((gen, exp))
        self.syllables = tuple(out)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word([(g, -e) for g, e in reversed(self.syllables)])

    def __pow__(self, n: int) -> "Word":
        require_int(n, "exponent")
        w = self.inverse() if n < 0 else self
        return Word(w.syllables * abs(n))

    def __eq__(self, other):
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self):
        return hash(self.syllables)

    def __len__(self):
        return len(self.syllables)

    def __str__(self):
        return format_word(self)

    def __repr__(self):
        return f"Word({list(self.syllables)})"


#: The most digits of an exponent: CPython's default limit on converting
#: between int and str, which README sets for every argument, lifted or not.
_EXPONENT_DIGITS = 4300


def parse_word(text: str) -> Word:
    """Parse whitespace-separated tokens S, S^-1 (or S-1), T, T^k, T^-k:
    an exponent is an optional '-' and 1 to 4300 ASCII digits."""
    syllables = []
    for tok in text.split():
        if tok in ("S", "T"):
            syllables.append((tok, 1))
            continue
        gen = tok[0]
        if gen not in ("S", "T"):
            raise DomainError(f"malformed word token {tok!r}")
        exp = tok[1:].removeprefix("^")
        digits = exp.removeprefix("-")
        if not (digits.isascii() and digits.isdigit() and len(digits) <= _EXPONENT_DIGITS):
            raise DomainError(f"malformed exponent in token {tok!r}")
        syllables.append((gen, int(exp)))
    return Word(syllables)


def format_word(w: Word) -> str:
    return " ".join(gen if exp == 1 else f"{gen}^{exp}" for gen, exp in w.syllables)


class PhiImage(NamedTuple):
    """phi(w) in coordinates: the matrix (u, u*v; 0, 1/u), u = zeta^u_exp,
    v = v[0]*zeta + v[1]*zeta^3."""

    u_exp: int
    v: Tuple[int, int]

    def compose(self, other: "PhiImage") -> "PhiImage":
        """Image of the concatenated word self * other."""
        # (u1, u1 v1; 0, 1/u1)(u2, u2 v2; 0, 1/u2) has unit u1 u2 and
        # v = v2 + zeta^(-2 u2_exp) v1.  On the basis (zeta, zeta^3),
        # multiplication by zeta^-2 (of order 6) is R = [[1, 1], [-1, 0]].
        a, b = self.v
        for _ in range(other.u_exp % 6):
            a, b = a + b, -a
        return PhiImage((self.u_exp + other.u_exp) % 12,
                        (other.v[0] + a, other.v[1] + b))


_IDENTITY = PhiImage(0, (0, 0))
# phi(S) = (-zeta^3, 1; 0, zeta^3) = (zeta^9, zeta^9 * zeta^3; 0, zeta^-9)
_S_POWERS = [_IDENTITY]
for _ in range(3):
    _S_POWERS.append(_S_POWERS[-1].compose(PhiImage(9, (0, 1))))


def phi(w: Word) -> PhiImage:
    """Fold compose over the syllables: phi(T^e) = (e mod 12, (0, 0)) and
    phi(S^e) = phi(S)^(e mod 4)."""
    img = _IDENTITY
    for gen, exp in w.syllables:
        img = img.compose(_S_POWERS[exp % 4] if gen == "S"
                          else PhiImage(exp % 12, (0, 0)))
    return img


class _SpecFields(NamedTuple):
    kind: str
    n: Optional[int] = None


class SubgroupSpec(_SpecFields):
    """Tagged choice of subgroup family.

    kind is one of 'GammaPrime', 'GammaDoublePrime', 'GammaPrimeN', 'Gp',
    'PhiCong'; n carries the level N or the prime p where applicable.
    """

    __slots__ = ()

    def __new__(cls, kind: str, n: Optional[int] = None):
        if kind in ("GammaPrime", "GammaDoublePrime"):
            if n is not None:
                raise DomainError(f"{kind} takes no parameter")
        elif kind in ("GammaPrimeN", "PhiCong"):
            require_int(n, f"the level of {kind}", 1)
        elif kind == "Gp":
            require_gp_prime(n)
        else:
            raise DomainError(f"unknown subgroup kind {kind!r}")
        return super().__new__(cls, kind, n)


def subgroup_member(w: Word, spec: SubgroupSpec) -> bool:
    """Membership of w, read off the single image phi(w) = (u, u*v; 0, 1/u).

    Gp(p) asks that u^4 = 1 and v lie in F_p after reducing Z[zeta] modulo
    a prime above p.  As p = 5 (mod 12) is prime, x^12 - 1 is separable
    mod p, so reduction is injective on the twelfth roots of unity and
    u^4 = 1 holds iff 3 | u_exp.  zeta^3 = i reduces into F_p because
    p = 1 (mod 4), while zeta does not because 12 does not divide p - 1;
    so v[0]*zeta + v[1]*zeta^3 reduces into F_p iff p | v[0].
    """
    img = phi(w)
    kind = spec.kind
    a, b = img.v
    if kind == "GammaPrime":
        return img.u_exp in (0, 6)
    if kind == "GammaDoublePrime":
        return img.u_exp in (0, 6) and img.v == (0, 0)
    if kind == "GammaPrimeN":
        n = spec.n
        return img.u_exp in (0, 6) and a % n == 0 and b % n == 0
    if kind == "Gp":
        return img.u_exp % 3 == 0 and a % spec.n == 0
    if kind == "PhiCong":
        # phi(w) = I mod n: n | v and n | zeta^k - 1 in Z[zeta].  On the
        # basis (1, zeta, zeta^2, zeta^3) the coordinates of zeta^k - 1
        # have gcd 1 except at k = 0 (all zero) and k = 6 (gcd 2).
        n = spec.n
        unit_ok = img.u_exp == 0 or n == 1 or (img.u_exp == 6 and n == 2)
        return unit_ok and a % n == 0 and b % n == 0
    raise DomainError(f"unknown subgroup kind {kind!r}")


def index_of(spec: SubgroupSpec) -> int:
    """Index in PSL2(Z): 6N^2 for GammaPrimeN(N), 3p for Gp(p)."""
    if spec.kind == "GammaPrimeN":
        return 6 * spec.n * spec.n
    if spec.kind == "Gp":
        return 3 * spec.n
    raise DomainError(f"index_of is not defined for {spec.kind}")
