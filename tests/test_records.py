"""The package's record types: what each kind may share, check and serialize.

Memo keys (``ModelSystem`` and its parts) are frozen dataclasses, which
compare by value and only with their own type.  Result carriers are
NamedTuples: no generated methods to compile at import, but a default is
one object shared by every instance, a tuple equals any tuple with the
same items, and ``json`` would write one as a list.  These tests pin the
behaviour that does not depend on that choice.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
import pkgutil
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import tangencylab as tl
from tangencylab.cascade import Box, CurveHandle, MapWord
from tangencylab.cases import SignCase
from tangencylab.cli import Axes, _jsonable
from tangencylab.leaves import SeedArc
from tangencylab.model import Condition, ModelSystem, Rect, SaddleSpec, TransitionSpec
from tangencylab.moduli import ConjugacyPair
from tangencylab.numerics import Polynomial
from tangencylab.returns import SlopedPoint

_ROOT = Path(__file__).resolve().parents[1]
_MEMO_KEYS = {"ModelSystem", "SaddleSpec", "TransitionSpec", "SeedArc"}


def _package_classes():
    """(module, class) for every class defined in a module of the package."""
    for info in pkgutil.iter_modules(tl.__path__):
        module = importlib.import_module(f"tangencylab.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield module, obj


def _mutable(value) -> bool:
    return isinstance(value, (list, dict, set, bytearray, np.ndarray))


# --- shared state -----------------------------------------------------------


def test_validate_reports_do_not_share_entries(ref):
    # A benchmark child validates two configs in one process: a report
    # whose entries were one list for every call would pile them up.
    first = tl.validate(ref)
    second = tl.validate(tl.slow_system())
    assert first.entries is not second.entries
    assert [e.name for e in first.entries] == [e.name for e in second.entries]
    assert len(first.entries) == 10
    assert first.ok and second.ok


_DEFAULTS = {
    "MapWord": (lambda: MapWord(), ("atoms",)),
    "CurveHandle": (lambda: CurveHandle((0.0, 0.0), (1.0, 0.0)), ("word", "s_lo", "s_hi")),
    "TransitionSpec": (lambda: TransitionSpec(1.0, -1.0, 1.0, -1.0, 0.0), ("m0", "h1_terms", "h2_terms")),
    "ModelSystem": (
        lambda: ModelSystem(SaddleSpec(0.3, 1.02), TransitionSpec(1.0, -1.0, 1.0, -1.0, 0.0), SeedArc((-2.0, 2.0), (0.5,))),
        ("chart_half_width", "uq_half_width", "ur_half_width"),
    ),
    "Condition": (lambda: Condition("name", True, "measured"), ("detail",)),
    "Axes": (lambda: Axes("x", "y"), ("title", "y_log")),
}


@pytest.mark.parametrize("name", sorted(_DEFAULTS))
def test_records_built_twice_share_no_mutable_default(name):
    build, attrs = _DEFAULTS[name]
    first, second = build(), build()
    for attr in attrs:
        a, b = getattr(first, attr), getattr(second, attr)
        assert a == b
        assert not (_mutable(a) and a is b), (name, attr)


def test_record_defaults_are_immutable():
    # A default value (not a factory) is one object for every instance, so
    # it must not be a container that code could fill.
    for module, cls in _package_classes():
        if dataclasses.is_dataclass(cls):
            defaults = [f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]
        else:
            defaults = list(getattr(cls, "_field_defaults", {}).values())
        for value in defaults:
            hash(value)  # raises on a list, dict, set or array


# --- checks at construction -------------------------------------------------


def _handle() -> CurveHandle:
    return CurveHandle((0.0, 0.0), (1.0, 0.0))


_BAD_INPUTS = {
    "SignCase": (lambda: SignCase(0, 1, 1, 1), "sign_a must be +1 or -1"),
    "SignCase mu": (lambda: SignCase(1, 1, 1, 2), "sign_mu must be +1 or -1"),
    "Rect x": (lambda: Rect(1.0, 0.0, 0.0, 1.0), "rectangle bounds out of order"),
    "Rect y": (lambda: Rect(0.0, 1.0, 1.0, 0.0), "rectangle bounds out of order"),
    "Rect nan": (lambda: Rect(math.nan, 1.0, 0.0, 1.0), "rectangle bounds out of order"),
    "Box kind": (lambda: Box("box", 0.0, 1.0, _handle(), _handle(), _handle(), 1), "unknown box kind 'box'"),
    "Box x order": (
        lambda: Box("rectangle-like", 1.0, 0.0, _handle(), _handle(), _handle(), 1),
        "box abscissas out of order",
    ),
    "Box k": (
        lambda: Box("parallelogram-like", 0.0, 1.0, _handle(), _handle(), _handle(), k=0),
        "cascade index starts at 1",
    ),
    "CurveHandle": (lambda: CurveHandle((0.0, 0.0), (1.0, 0.0), s_lo=0.5, s_hi=0.5), "handle parameter range [0.5, 0.5] invalid"),
    "CurveHandle s_hi": (
        lambda: CurveHandle((0.0, 0.0), (1.0, 0.0), MapWord(), 0.0, 1.5),
        "handle parameter range [0.0, 1.5] invalid",
    ),
    "SlopedPoint negative": (lambda: SlopedPoint((1.0, 0.0), -1.0), "slope must be a nonnegative number, got -1.0"),
    "SlopedPoint nan": (lambda: SlopedPoint((1.0, 0.0), math.nan), "slope must be a nonnegative number, got nan"),
    "ConjugacyPair zero": (
        lambda: ConjugacyPair(tl.reference_system(), tl.reference_system(), (0.0, 1.0), 0),
        "conjugacy scales must be finite and nonzero",
    ),
    "ConjugacyPair inf": (
        lambda: ConjugacyPair(tl.reference_system(), tl.reference_system(), (1.0, math.inf), 0),
        "conjugacy scales must be finite and nonzero",
    ),
    "SaddleSpec nan": (lambda: SaddleSpec(math.nan, 1.02), "eigenvalues must be finite"),
    "SaddleSpec zero": (lambda: SaddleSpec(0.3, 0.0), "eigenvalues must be nonzero"),
    "TransitionSpec coefficient": (lambda: TransitionSpec(1.0, math.inf, 1.0, -1.0, 0.0), "coefficient b must be finite"),
    "TransitionSpec m0": (lambda: TransitionSpec(1.0, -1.0, 1.0, -1.0, 0.0, 0), "m0 must be a positive integer"),
    "TransitionSpec term": (
        lambda: TransitionSpec(1.0, -1.0, 1.0, -1.0, 0.0, 1, ((4, 0),)),
        "h1 term (4, 0) is not (i, j, coefficient)",
    ),
    "TransitionSpec term nan": (
        lambda: TransitionSpec(1.0, -1.0, 1.0, -1.0, 0.0, 1, ((2, 1, math.nan),)),
        "h1 term (2, 1, nan) has a non-finite coefficient",
    ),
    "TransitionSpec h2 term inf": (
        lambda: TransitionSpec(1.0, -1.0, 1.0, -1.0, 0.0, 1, (), ((2, 0, -math.inf),)),
        "h2 term (2, 0, -inf) has a non-finite coefficient",
    ),
    "SeedArc nan": (lambda: SeedArc((-2.0, 2.0), (0.5, math.nan)), "seed coefficient 1 must be finite, got nan"),
    "SeedArc z0 nan": (lambda: SeedArc((-2.0, 2.0), (math.nan,)), "seed coefficient 0 must be finite, got nan"),
    "SeedArc domain": (lambda: SeedArc((0.5, 2.0), (0.5,)), "seed domain must contain 0 and 1 in its interior"),
    "SeedArc coeffs": (lambda: SeedArc((-2.0, 2.0), ()), "seed polynomial needs at least one coefficient"),
    "SeedArc z0": (lambda: SeedArc((-2.0, 2.0), (-0.5,)), "seed must cross the stable axis at positive height"),
    "SeedArc sign": (lambda: SeedArc((-2.0, 2.0), (0.5, 1.0)), "seed arc must be positive on its whole domain"),
    "ModelSystem": (lambda: tl.make_system(uq_half_width=0.0), "chart half widths must be positive"),
}


@pytest.mark.parametrize("name", list(_BAD_INPUTS))
def test_validating_records_reject_bad_input(name):
    build, text = _BAD_INPUTS[name]
    with pytest.raises(tl.DomainError) as info:
        build()
    assert str(info.value) == text


# --- serialization and the record-type budget ---------------------------------


def test_jsonable_refuses_records():
    # json.dumps raises on a dataclass; _jsonable raises the same way on a
    # NamedTuple, which json would otherwise write as a list.
    Pair = namedtuple("Pair", "x y")
    with pytest.raises(TypeError, match="Object of type Pair is not JSON serializable"):
        _jsonable({"ok": [1.0], "record": Pair(1.0, 2.0)})
    with pytest.raises(TypeError):
        _jsonable(tl.validate(tl.reference_system()).entries)
    assert _jsonable(Polynomial((1.0, math.inf))) == [1.0, "inf"]
    assert _jsonable({"grid": (32, 32, 3), "levels": [8, 9]}) == {"grid": [32, 32, 3], "levels": [8, 9]}
    with pytest.raises(TypeError):
        json.dumps(tl.reference_system().saddle)


def test_only_the_memo_keys_are_dataclasses(ref):
    dataclass_names = {cls.__name__ for _, cls in _package_classes() if dataclasses.is_dataclass(cls)}
    assert dataclass_names == _MEMO_KEYS
    # value equality with their own type only: no tuple stands in for a key
    assert ref != tuple(getattr(ref, f.name) for f in dataclasses.fields(ref))
    assert ref.saddle != (ref.lam, ref.mu)
    assert ref == tl.make_system() and hash(ref) == hash(tl.make_system())


def _tracer_methods() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracer", _ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.METHODS


def test_traced_methods_live_on_the_exported_class():
    # benchmarks/tracer.py wraps vars(cls)[method]: a method inherited from a
    # base class would not be there and a traced child would crash.
    methods = _tracer_methods()
    assert methods
    for qual in methods:
        layer, cls_name, method = qual.split(".")
        cls = getattr(importlib.import_module(f"tangencylab.{layer}"), cls_name)
        assert cls is getattr(tl, cls_name)
        assert inspect.isfunction(vars(cls).get(method)), qual
