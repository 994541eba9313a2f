"""The value records: one ``exact.Record`` base gives every record its
equality, hash, repr and immutability.

Each record below is built once; its repr is the one the package printed
when the records were dataclasses, so any script or log that read them
reads the same text.
"""
import copy
import pickle
from fractions import Fraction

import pytest

import badapprox
import oracles
from badapprox.certify import BadnessReport, DecayTable, PowerLaw
from badapprox.engine import GameParams, GameState, GameTrace, MoveRecord, concentric, run_game
from badapprox.escape import CapSelection
from badapprox.exact import Record
from badapprox.geometry import Ball, Halfspace, Hyperplane
from badapprox.resonance import ResonanceEntry, ResonanceSequence, ThetaMatrix
from badapprox.schedule import BlockSchedule, StrategyParams
from badapprox.strategy import Certificate, CertificateEntry, HandledPlane

BALL = "Ball(center=(Fraction(1, 3), Fraction(2, 1)), radius=Fraction(1, 4))"
PARAMS = "GameParams(alpha=Fraction(1, 4), beta=Fraction(1, 2), dimension=2)"
MOVE = f"MoveRecord(player='B', ball={BALL}, note='hold')"
PLANE = "Hyperplane(normal=(1, -2), offset=3)"
ENTRY = "ResonanceEntry(vector=(1, 2), norm_sq=5, quality=Fraction(1, 9))"
SP = (
    "StrategyParams(alpha=Fraction(1, 4), beta=Fraction(1, 2), dimension=2, "
    "lacunarity=Fraction(3, 1), gamma=Fraction(5, 8), escape_rounds=2, "
    "cap_measure_lb=Fraction(1, 16), plane_budget=5, avoidance_rounds=4, "
    "margin=Fraction(5, 2592))"
)
CERT_ENTRY = (
    "CertificateEntry(r=1, normal=(1, -2), offset=3, block=0, residual_lb=Fraction(1, 100))"
)


def _records() -> list[tuple[Record, str]]:
    """One instance of each record, with its pinned repr."""
    ball = Ball((Fraction(1, 3), 2), "1/4")
    params = GameParams("1/4", "1/2", 2)
    plane = Hyperplane((1, -2), 3)
    move = MoveRecord("B", ball, "hold")
    entry = ResonanceEntry((1, 2), 5, Fraction(1, 9))
    sp = StrategyParams(
        alpha=Fraction(1, 4), beta=Fraction(1, 2), dimension=2, lacunarity=Fraction(3),
        gamma=Fraction(5, 8), escape_rounds=2, cap_measure_lb=Fraction(1, 16), plane_budget=5,
        avoidance_rounds=4, margin=Fraction(5, 2592),
    )
    cert_entry = CertificateEntry(1, (1, -2), 3, 0, Fraction(1, 100))
    return [
        (ball, BALL),
        (plane, PLANE),
        (
            Halfspace(((3, 4), 5), Fraction(1, 7), (0, 1)),
            "Halfspace(direction=((3, 4), 5), threshold=Fraction(1, 7), "
            "anchor=(Fraction(0, 1), Fraction(1, 1)))",
        ),
        (params, PARAMS),
        (
            GameState(params, ball, 0, "W"),
            f"GameState(params={PARAMS}, ball={BALL}, move_index=0, turn='W')",
        ),
        (move, MOVE),
        (GameTrace(params, ball, [move]), f"GameTrace(params={PARAMS}, initial={BALL}, moves=[{MOVE}])"),
        (ThetaMatrix((("1/3", "2/5"),)), "ThetaMatrix(rows=((Fraction(1, 3), Fraction(2, 5)),))"),
        (entry, ENTRY),
        (
            ResonanceSequence((entry, ResonanceEntry((3, 4), 25, None)), 2),
            f"ResonanceSequence(entries=({ENTRY}, ResonanceEntry(vector=(3, 4), norm_sq=25, "
            "quality=None)), lacunarity=Fraction(2, 1))",
        ),
        (sp, SP),
        (
            BlockSchedule(sp, Fraction(1, 8), 2, (0, 1, 3)),
            f"BlockSchedule(params={SP}, rho0=Fraction(1, 8), blocks=2, cuts=(0, 1, 3))",
        ),
        (
            CapSelection((Fraction(3, 5), Fraction(4, 5)), (0,), (0,), 7),
            "CapSelection(direction=(Fraction(3, 5), Fraction(4, 5)), escaped=(0,), strong=(0,), "
            "candidates_tried=7)",
        ),
        (HandledPlane(1, plane, 0), f"HandledPlane(r=1, plane={PLANE}, block=0)"),
        (cert_entry, CERT_ENTRY),
        (
            Certificate(sp, Fraction(1, 8), 2, 3, (Fraction(1, 3),), Fraction(1, 1024), [cert_entry]),
            f"Certificate(params={SP}, rho0=Fraction(1, 8), blocks=2, covered_through=3, "
            f"eta_center=(Fraction(1, 3),), eta_radius=Fraction(1, 1024), entries=[{CERT_ENTRY}])",
        ),
        (PowerLaw(1, 1, 2), "PowerLaw(c=Fraction(1, 1), sigma_num=1, sigma_den=2)"),
        (
            DecayTable((1, 2), ("1/2", "1/4")),
            "DecayTable(sizes=(1, 2), values=(Fraction(1, 2), Fraction(1, 4)))",
        ),
        (
            BadnessReport("theorem1", Fraction(1, 3), (1,), 10),
            "BadnessReport(functional='theorem1', value=Fraction(1, 3), argmin=(1,), limit=10, "
            "extras={}, warnings=[])",
        ),
    ]


MUTABLE = {GameTrace, Certificate, BadnessReport}


def _package_records() -> set[type]:
    assert badapprox.__version__  # every module is loaded
    out, todo = set(), list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("badapprox."):
            out.add(cls)
        todo.extend(cls.__subclasses__())
    return out


def test_every_record_is_covered():
    assert {type(r) for r, _ in _records()} == _package_records()
    assert len(_package_records()) == 19


@pytest.mark.parametrize("record, pinned", _records(), ids=lambda x: type(x).__name__)
def test_repr_is_the_dataclass_repr(record, pinned):
    assert repr(record) == pinned


@pytest.mark.parametrize("record", [r for r, _ in _records()], ids=lambda r: type(r).__name__)
def test_equality_hash_and_assignment(record):
    cls = type(record)
    fields = cls.__slots__
    values = tuple(getattr(record, name) for name in fields)
    rebuilt = oracles.replace(record)
    assert rebuilt is not record and rebuilt == record and not rebuilt != record
    assert record != values and record != object()
    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(rebuilt, fields[0], None)
        assert rebuilt != record
    else:
        assert hash(rebuilt) == hash(record) == hash(values)  # the dataclass hash: set order holds
        for name in fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in fields) == values
    with pytest.raises(AttributeError):
        record.extra = 1  # the fields are the slots, nothing else
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(again) is cls and again == record


def test_equality_is_by_field_and_by_class():
    class Twin(Record, frozen=True):
        __slots__ = ("normal", "offset")

        def __init__(self, normal, offset):
            set_normal, set_offset = self._setters
            set_normal(self, normal)
            set_offset(self, offset)

    plane = Hyperplane((1, -2), 3)
    twin = Twin((1, -2), 3)
    assert repr(twin).endswith("Twin(normal=(1, -2), offset=3)")
    assert plane != twin and twin != plane
    assert plane == Hyperplane((Fraction(1), -2), Fraction(6, 2))
    assert plane != Hyperplane((1, -2), 4)
    assert PowerLaw(1, 1, 2) != PowerLaw(1, 2, 4)  # sigma is kept unreduced
    assert len({plane, Hyperplane((1, -2), 3), Hyperplane((2, 1), 3)}) == 2


def test_the_text_a_loaded_ball_keeps_is_not_a_field():
    loaded = Ball.from_jsonable({"center": ["1/3", "2/1"], "radius": "1/4"})
    plain = Ball((Fraction(1, 3), 2), "1/4")
    assert loaded._text == (("1/3", "2/1"), "1/4") and plain._text is None
    assert loaded == plain and plain == loaded and not loaded != plain
    assert hash(loaded) == hash(plain) and repr(loaded) == repr(plain) == BALL
    for again in (copy.copy(loaded), copy.deepcopy(loaded), pickle.loads(pickle.dumps(loaded))):
        assert type(again) is Ball and again == plain and again._text is None
    with pytest.raises(AttributeError, match="frozen Ball"):
        loaded._text = None


def test_the_form_a_state_keeps_is_not_a_field():
    # run_game's state holds the engine's form, a hand-built one computes
    # the least one on its first read: the two states are one record
    params = GameParams("1/4", "1/2", 2)
    ball = Ball((Fraction(1, 3), 2), "1/4")
    seen = []
    run_game(params, ball, lambda state: seen.append(state) or ((1, (0, 0)), None), concentric, 1)
    played, plain = seen[0], GameState(params, ball, 0, "W")
    assert played._form == (12, (4, 24)) and not hasattr(plain, "_form")
    assert plain.integer_center == (3, (1, 6)) == plain._form
    assert played == plain and plain == played and not played != plain
    assert hash(played) == hash(plain) and repr(played) == repr(plain)
    for again in (copy.copy(played), copy.deepcopy(played), pickle.loads(pickle.dumps(played))):
        assert type(again) is GameState and again == plain and not hasattr(again, "_form")
    with pytest.raises(AttributeError, match="frozen GameState"):
        played._form = None


def test_the_slots_outside_the_fields_are_a_balls_text_and_a_states_form():
    # whatever a record holds beside its fields is invisible to equality,
    # hash, repr, copy and pickle: only a loaded Ball's text and a
    # GameState's integer center may be
    extra = {Ball: {"_text"}, GameState: {"_form"}}
    for cls in _package_records():
        slots = {s for k in cls.__mro__ for s in k.__dict__.get("__slots__", ())}
        assert slots - set(cls.__slots__) == extra.get(cls, set()), cls


#: Records that only store their fields: they take Record's constructor.
PLAIN = {
    HandledPlane, CertificateEntry, Certificate, CapSelection, StrategyParams, BlockSchedule,
    ResonanceEntry, GameState,
}


@pytest.mark.parametrize(
    "record", [r for r, _ in _records() if type(r) in PLAIN], ids=lambda r: type(r).__name__
)
def test_plain_records_are_built_by_position_or_by_name(record):
    cls = type(record)
    assert "__init__" not in cls.__dict__
    values = [getattr(record, name) for name in cls.__slots__]
    by_name = dict(zip(cls.__slots__, values))
    assert cls(*values) == cls(**by_name) == cls(*values[:1], **dict(list(by_name.items())[1:]))
    assert cls(**dict(reversed(by_name.items()))) == record  # keyword order is free


class Pair(Record, frozen=True):
    __slots__ = ("left", "right")


@pytest.mark.parametrize("args, kwargs, match", [
    ((1,), {}, "Pair is missing field 'right'"),
    ((), {"left": 1}, "Pair is missing field 'right'"),
    ((1, 2), {"middle": 3}, "Pair has no field 'middle'"),
    ((1, 2), {"left": 3}, "Pair got field 'left' twice"),
    ((1, 2, 3), {}, "Pair takes 2 fields, got 3"),
])
def test_the_base_constructor_refuses_a_wrong_field(args, kwargs, match):
    with pytest.raises(TypeError, match=match):
        Pair(*args, **kwargs)


def test_a_plain_frozen_record_still_refuses_assignment():
    pair = Pair(1, right=2)
    assert (pair.left, pair.right) == (1, 2) and repr(pair).endswith("Pair(left=1, right=2)")
    with pytest.raises(AttributeError, match="cannot assign to field 'left' of frozen Pair"):
        pair.left = 3
    plane = HandledPlane(1, Hyperplane((1, -2), 3), 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'r' of frozen HandledPlane"):
        plane.r = 2
    assert pair == Pair(left=1, right=2) and hash(pair) == hash((1, 2))


def test_replace_rebuilds_through_the_constructor():
    ball = Ball((Fraction(1, 3),), Fraction(1, 4))
    assert oracles.replace(ball, radius="1/2") == Ball((Fraction(1, 3),), Fraction(1, 2))
    with pytest.raises(ValueError, match="radius must be positive"):
        oracles.replace(ball, radius=0)
    with pytest.raises(TypeError, match="diameter"):
        oracles.replace(ball, diameter=1)
    first, second = (BadnessReport("theorem1", Fraction(1, 3), (1,), 10) for _ in range(2))
    first.warnings.append("w")
    first.extras["k"] = 1
    assert (second.warnings, second.extras) == ([], {})  # each report owns its defaults
