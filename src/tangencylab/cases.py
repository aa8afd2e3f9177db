"""Sign-case classification for the tangency model.

The construction depends only on four signs: sign(a), sign(b*c), sign(lam),
sign(mu).  Roman families I..IV encode (sign a, sign bc); the two subscripts
encode (sign lam, sign mu).  A case is *adaptable* when some arc index n
produces a rectangle S_n (or its f-image) in the first quadrant, which is
what the return machinery needs.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover
    from .model import ModelSystem

__all__ = [
    "SignCase",
    "SIGN_CASES",
    "Adaptability",
    "classify",
    "classify_system",
    "adaptability",
    "adaptable_count",
    "adaptable_labels",
]

_FAMILIES = {(1, 1): "I", (1, -1): "II", (-1, 1): "III", (-1, -1): "IV"}


def _sign(v: float, name: str) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    raise DomainError(f"{name} must be nonzero to classify")


class SignCase(namedtuple("SignCase", "sign_a sign_bc sign_lam sign_mu")):
    """One of the sixteen sign patterns (a, bc, lam, mu)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, sign in zip(self._fields, self):
            if sign not in (-1, 1):
                raise DomainError(f"{name} must be +1 or -1")
        return self

    @property
    def family(self) -> str:
        return _FAMILIES[(self.sign_a, self.sign_bc)]

    @property
    def label(self) -> str:
        subs = ("+" if self.sign_lam > 0 else "-") + ("+" if self.sign_mu > 0 else "-")
        return f"{self.family}_{{{subs}}}"


class Adaptability(NamedTuple):
    """Whether and how the rectangle construction applies to a sign case:
    the one record that turns the four signs into the levels the walkers
    visit, the f-power whose eigenvalues are positive and the region."""

    adaptable: bool
    n_parity: str  # "all" | "even" | "odd"
    sn_quadrant: str  # "Q1" | "Q2" | "none"
    needs_f_image: bool
    region: str | None  # "R_eps" | "R_eps_minus" | None
    f_power: int  # 1 when lam > 0 and mu > 0, else 2


def classify(sign_a: int, sign_bc: int, sign_lam: int, sign_mu: int) -> SignCase:
    return SignCase(sign_a, sign_bc, sign_lam, sign_mu)


# All sixteen sign cases, in the row order of the case table.
SIGN_CASES = tuple(
    SignCase(sa, sbc, sl, sm) for sa in (1, -1) for sbc in (1, -1) for sl in (1, -1) for sm in (1, -1)
)


def classify_system(sys: "ModelSystem") -> tuple[SignCase, Adaptability]:
    t = sys.transition
    case = classify(
        _sign(t.a, "a"),
        _sign(t.b * t.c, "b*c"),
        _sign(sys.lam, "lam"),
        _sign(sys.mu, "mu"),
    )
    return case, adaptability(case)


def adaptability(case: SignCase) -> Adaptability:
    """Existence and placement of the rectangles S_n for a sign case.

    For lam > 0 the image arc has a vertical tangency pair iff bc < 0; for
    lam < 0 the arc level alternates sign, so the pair exists for bc < 0 at
    even n and for bc > 0 at odd n.  The rectangle sits in Q1 when the arc
    level times a is positive, else in Q2, and a Q2 rectangle can only be
    pulled into Q1 by one application of f when mu < 0.
    """
    f_power = 1 if case.sign_lam > 0 and case.sign_mu > 0 else 2
    if case.sign_lam > 0:
        if case.sign_bc > 0:
            return Adaptability(False, "all", "none", False, None, f_power)
        parity, level_sign = "all", 1  # lam^n > 0
    elif case.sign_bc < 0:
        parity, level_sign = "even", 1
    else:
        parity, level_sign = "odd", -1

    quadrant = "Q1" if case.sign_a * level_sign > 0 else "Q2"
    needs_f = quadrant == "Q2"
    adaptable = not needs_f or case.sign_mu < 0
    if not adaptable:
        return Adaptability(False, parity, quadrant, needs_f, None, f_power)
    region = "R_eps_minus" if (case.sign_mu < 0 or quadrant == "Q2") else "R_eps"
    return Adaptability(True, parity, quadrant, needs_f, region, f_power)


def adaptable_labels() -> list[str]:
    return sorted(case.label for case in SIGN_CASES if adaptability(case).adaptable)


def adaptable_count() -> int:
    return len(adaptable_labels())

