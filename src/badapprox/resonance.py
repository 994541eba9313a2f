"""Resonance structure of a rational matrix: approximation records and
lacunary thinning.

For a rational matrix theta (m rows, n columns) the dual quality of a nonzero
integer vector y in Z^n is max_i ||row_i . y|| where ||.|| is distance to the
nearest integer.  Records of this quality, enumerated in order of increasing
Euclidean length, are the resonance vectors; thinning them to a lacunary
family (consecutive size ratios pinned inside [M, M^2]) produces the input
the avoidance strategy consumes.

Theta's shape picks its records route here alone.  A 1x1 theta's records
are its continued-fraction convergents.  Every other shape's records are
listed by banded enumeration of the lattice {(y, v) : v = C y mod D}
(``exact.box_points``): each band lists only the y whose quality is below
the least quality of the earlier bands.  When y is a number (n = 1) its
Euclidean and sup-norm shells coincide, so psi's steps are the records;
for n >= 2 they come from the same enumeration in the sup norm.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .exact import (
    Rat,
    Record,
    box_points,
    int_dist,
    json_list,
    json_object,
    json_rat,
    over_common_denominator,
    rat,
    rat_str,
)
from .geometry import nearest_int_dist

#: F_30 / F_31 — the classic golden-section convergent used throughout the
#: worked examples and the command-line built-in ``--theta golden``.
GOLDEN_CONVERGENT = Fraction(832040, 1346269)


class EmptySequence(Exception):
    """Raised when a resonance computation is handed nothing to work with."""


class ThetaMatrix(Record, frozen=True):
    """m x n rational matrix, stored row-major.

    Row i against an integer vector x in Z^m contributes theta[i][j]*x_i to
    form j; the dual quality pairs rows with y in Z^n.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Rat]]):
        rows = tuple(tuple(rat(x) for x in r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("theta must be a nonempty matrix")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged theta matrix")
        (set_rows,) = self._setters
        set_rows(self, rows)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def dual_quality(self, y: Sequence[int]) -> Fraction:
        """max_i || row_i · y ||, exact."""
        best = Fraction(0)
        for row in self.rows:
            s = sum((c * yy for c, yy in zip(row, y)), Fraction(0))
            d = nearest_int_dist(s)
            if d > best:
                best = d
        return best

    def to_jsonable(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "entries": [[rat_str(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ThetaMatrix":
        rows = tuple(
            tuple(json_rat(x, "theta entry") for x in json_list(row, "theta row"))
            for row in json_list(obj["entries"], "entries")
        )
        m, n = obj["m"], obj["n"]
        if type(m) is not int or type(n) is not int:  # a bool or float is a forgery
            raise ValueError(f"theta m and n must be JSON integers, got {m!r} and {n!r}")
        if len(rows) != m or any(len(r) != n for r in rows):
            raise ValueError("entries do not match declared shape")
        return cls(rows)

    @classmethod
    def scalar(cls, value) -> "ThetaMatrix":
        return cls(((rat(value),),))


def golden_theta() -> ThetaMatrix:
    return ThetaMatrix.scalar(GOLDEN_CONVERGENT)


def _dual_forms(theta: ThetaMatrix) -> tuple[list[list[int]], int]:
    """Coefficients of y -> row_i . y over the common denominator D of theta:
    coeffs[j][i] = D * theta[i][j], one list per coordinate of y."""
    den, ints = over_common_denominator([x for row in theta.rows for x in row])
    n = theta.n
    return [ints[j::n] for j in range(n)], den


def psi_theta(theta: ThetaMatrix, t: int) -> Fraction:
    """min over nonzero y in Z^n with max|y_j| <= t of the dual quality: the
    value of the last step of psi_steps."""
    return psi_steps(theta, t)[-1][1]


def _shell_records(
    theta: ThetaMatrix, t: int, euclidean: bool
) -> tuple[list[tuple[int, int, tuple[int, ...]]], int]:
    """Strict records of the dual quality over the shells of [-t, t]^n in
    increasing order: shells of equal |y|^2 if ``euclidean`` (the records
    of every shape but 1x1), else of equal max|y_j| (psi's steps for
    n >= 2).  Returns ([(shell, num, y)], D): num / D is the quality of y,
    the lex-first canonical minimizer of its shell (first nonzero entry
    positive), and a shell's minimum is a record iff it is strictly below
    the minimum of every earlier shell.

    The pairs (y, v) with v = C y mod D, C the dual forms over the common
    denominator D, form an (n + m)-dimensional lattice, and the quality of y
    is max_i |v_i| for the representative with every |v_i| <= D/2.  The
    shells go in bands whose norm lies in [lo, 2 lo), lo = 1, 2, 4, ...,
    all inside the box max|y_j| <= min(t, 2 lo - 1).  With Q the least
    quality below the band (D//2 + 1 for the first), ``exact.box_points``
    lists every y of that box with quality below Q, both signs of each;
    every record of the band is among them, and the shells of the
    canonical ones are sorted by (shell, num, y).  After
    a record of quality 0 nothing can be lower, and the search stops.
    """
    coeffs, den = _dual_forms(theta)
    n, m = theta.n, theta.m
    basis = [[int(i == j) for i in range(n)] + coeffs[j] for j in range(n)]
    basis += [[0] * n + [den * (i == h) for i in range(m)] for h in range(m)]
    norm = (lambda y: sum(c * c for c in y)) if euclidean else (lambda y: max(map(abs, y)))
    last = norm((t,) * n)  # the largest shell of the box
    found = []
    best = den // 2 + 1
    lo = 1
    while norm((lo,)) <= last and best:
        shell_lo, shell_hi = norm((lo,)), norm((2 * lo,))
        box = min(t, 2 * lo - 1)
        basis, points = box_points(basis, [0] * (n + m), [box] * n + [min(best - 1, den // 2)] * m)
        shells: dict[int, tuple[int, tuple[int, ...]]] = {}
        for p in points:  # the box is symmetric, so -y is listed too: keep canonical y
            y = p[:n]
            shell = norm(y)
            if next(filter(None, y), 0) > 0 and shell_lo <= shell < shell_hi:
                cand = (max(map(abs, p[n:])), y)
                if shell not in shells or cand < shells[shell]:
                    shells[shell] = cand
        for shell in sorted(shells):
            num, y = shells[shell]
            if num < best:
                found.append((shell, num, y))
                best = num
        lo *= 2
    return found, den


class ResonanceEntry(Record, frozen=True):
    """A record (y, |y|^2, dual quality of y), or lacunary padding (quality None)."""

    __slots__ = ("vector", "norm_sq", "quality")

    def to_jsonable(self) -> dict:
        return {
            "u": list(self.vector),
            "t_sq": self.norm_sq,
            "quality": rat_str(self.quality) if self.quality is not None else None,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ResonanceEntry":
        obj = json_object(obj, "family entry")
        q = obj.get("quality")
        return cls(
            tuple(json_list(obj["u"], "u")),
            obj["t_sq"],
            json_rat(q, "quality") if q is not None else None,
        )


def best_approximations(theta: ThetaMatrix, t_max: int) -> list[ResonanceEntry]:
    """Strict records of dual quality, by increasing Euclidean length.

    Candidates are grouped into shells of equal |y|^2 and scanned in
    (|y|^2, lex) order; a shell's minimum becomes a record iff it is strictly
    below every earlier quality.  Only the canonical representative of each
    ±pair is considered (quality is sign-symmetric).  A record of quality
    zero is the last one (nothing can beat it).  A 1x1 theta's records are
    its convergent denominators (best_approximations_cf); every other shape
    is enumerated (_shell_records).
    """
    if theta.shape == (1, 1):
        return best_approximations_cf(theta, t_max)
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    found, den = _shell_records(theta, t_max, euclidean=True)
    return [ResonanceEntry(y, nsq, Fraction(num, den)) for nsq, num, y in found]


def convergents(x: Fraction) -> Iterator[tuple[int, int]]:
    """Yield the (p, q) convergents of the rational x, whose continued
    fraction [a0; a1, ..., ak] Euclid's algorithm reads off in O(log q) steps;
    the last convergent is x itself."""
    num, den = x.numerator, x.denominator
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    while den:
        a, (num, den) = num // den, (den, num % den)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield p_cur, q_cur


def best_approximations_cf(theta: ThetaMatrix, t_max: int) -> list[ResonanceEntry]:
    """Records for a 1x1 theta via its continued-fraction convergents.

    For a single rational angle the strict quality records at integer sizes
    are exactly the convergent denominators (Lagrange); this route never
    enumerates and is cross-checked against the brute-force enumeration in
    the test-suite.  With theta = num/den, the quality ||q theta|| is
    int_dist(num*q, den)/den, so records compare on integers over den and
    a Fraction is built only for a record.
    """
    if theta.shape != (1, 1):
        raise ValueError(f"the continued-fraction route needs a 1x1 theta, got {theta.shape}")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    value = theta.rows[0][0]
    num, den = value.numerator, value.denominator
    records: list[ResonanceEntry] = []
    best: Optional[int] = None
    for _, q in convergents(value):
        if q > t_max:
            break
        dist = int_dist(num * q, den)
        if best is None or dist < best:
            records.append(ResonanceEntry((q,), q * q, Fraction(dist, den)))
            best = dist
    return records


def psi_steps(theta: ThetaMatrix, t_max: int) -> list[tuple[int, Fraction]]:
    """The steps (t, psi_theta(t)) of psi up to t_max, in increasing t.

    psi_theta is a non-increasing step function of t; it drops exactly at
    the sup-norm shells holding a strict record of the dual quality, so one
    scan over those shells gives every step.  When n = 1, y is a number, its
    sup-norm and Euclidean shells coincide, and the steps are the records
    (y, quality) of best_approximations.
    """
    if theta.n == 1:
        return [(r.vector[0], r.quality) for r in best_approximations(theta, t_max)]
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    found, den = _shell_records(theta, t_max, euclidean=False)
    return [(t, Fraction(num, den)) for t, num, _ in found]


# -- lacunary thinning -------------------------------------------------------


class ResonanceSequence(Record, frozen=True):
    """A finite family u_1, u_2, ... with lacunary sizes t_r = |u_r|, and the
    lacunarity M.

    Invariant (checked): M^2 <= t_{r+1}^2 / t_r^2 <= M^4 for consecutive
    entries — i.e. the size ratio lies in [M, M^2], all verified on squares,
    by cross-multiplication with M = m/d: m^2 t_r^2 <= d^2 t_{r+1}^2 and
    d^4 t_{r+1}^2 <= m^4 t_r^2.
    """

    __slots__ = ("entries", "lacunarity")

    def __init__(self, entries: Sequence[ResonanceEntry], lacunarity: Rat):
        lacunarity, entries = rat(lacunarity), tuple(entries)
        if lacunarity <= 1:
            raise ValueError("lacunarity must exceed 1")
        if not entries:
            raise EmptySequence("resonance sequence is empty")
        m2, d2 = lacunarity.numerator**2, lacunarity.denominator**2
        m4, d4 = m2 * m2, d2 * d2
        dims = {len(e.vector) for e in entries}
        if len(dims) != 1:
            raise ValueError("mixed dimensions in resonance sequence")
        for e in entries:
            if any(type(c) is not int for c in (*e.vector, e.norm_sq)):
                raise ValueError(f"vector and norm_sq must be integers: {e.vector}, {e.norm_sq}")
            if e.norm_sq != sum(c * c for c in e.vector):
                raise ValueError(f"stored norm_sq wrong for {e.vector}")
        for prev, cur in zip(entries, entries[1:]):
            if not (m2 * prev.norm_sq <= d2 * cur.norm_sq and d4 * cur.norm_sq <= m4 * prev.norm_sq):
                raise ValueError(
                    f"size ratio^2 {Fraction(cur.norm_sq, prev.norm_sq)} outside [M^2, M^4] "
                    f"between {prev.vector} and {cur.vector}"
                )
        set_entries, set_lacunarity = self._setters
        set_entries(self, entries)
        set_lacunarity(self, lacunarity)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def dimension(self) -> int:
        return len(self.entries[0].vector)

    def vector(self, r: int) -> tuple[int, ...]:
        """1-based access, matching the block-schedule indexing."""
        return self.entries[r - 1].vector

    def norm_sq_of(self, r: int) -> int:
        return self.entries[r - 1].norm_sq

    def to_jsonable(self) -> dict:
        return {
            "M": rat_str(self.lacunarity),
            "entries": [e.to_jsonable() for e in self.entries],
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ResonanceSequence":
        obj = json_object(obj, "family")
        return cls(
            tuple(ResonanceEntry.from_jsonable(e) for e in json_list(obj["entries"], "entries")),
            json_rat(obj["M"], "M"),
        )


def lacunary_normalize(
    records: Iterable[ResonanceEntry], lacunarity
) -> ResonanceSequence:
    """Thin (and where needed pad) size records into a lacunary family.

    Greedy left-to-right: keep the first record; a later record whose size
    ratio to the last kept entry is below M is dropped, one inside [M, M^2]
    is kept, and one beyond M^2 forces padding — an axis-aligned filler of
    the smallest integer size s with s^2 >= M^2 * t_kept^2 is inserted, then
    the same record is reconsidered.  Ratio tests compare squares against
    [M^2, M^4] by cross-multiplication on integers; no roots are taken.
    Records with quality zero never enter (they mark exact resonances, not
    usable sizes).
    """
    m = rat(lacunarity)
    if m <= 1:
        raise ValueError("lacunarity must exceed 1")
    m2, d2 = m.numerator**2, m.denominator**2
    m4, d4 = m2 * m2, d2 * d2
    pending = [r for r in records if r.quality != 0]
    if not pending:
        raise EmptySequence("no usable records (all exact resonances?)")
    dim = len(pending[0].vector)

    out: list[ResonanceEntry] = [pending[0]]
    for rec in pending[1:]:
        while True:
            last_sq = out[-1].norm_sq
            if d2 * rec.norm_sq < m2 * last_sq:
                break  # too close to the last kept size: drop
            if d4 * rec.norm_sq <= m4 * last_sq:
                out.append(rec)
                break
            # gap too wide: pad with the smallest admissible integer size,
            # the least s with s^2 >= M^2 last_sq, i.e. s^2 >= ceil(M^2 last_sq)
            s = math.isqrt(-(-m2 * last_sq // d2) - 1) + 1
            filler = (s,) + (0,) * (dim - 1)
            out.append(ResonanceEntry(filler, s * s, None))
    return ResonanceSequence(tuple(out), m)


# -- decay-profile comparison ------------------------------------------------


def verify_decay_bound(
    theta: ThetaMatrix,
    profile,  # callable int -> Fraction (claimed upper bound on psi at t)
    t_max: int,
) -> dict:
    """Check psi_theta(t) <= profile(t) for every integer t in [1, t_max].

    The claimed profile is evaluated at both ends of each constant segment
    of psi (psi_steps; for a non-increasing profile the right end is the
    tight spot).  Failures are listed in increasing t.  Returns a small
    report dict; report["ok"] is the verdict.
    """
    steps = psi_steps(theta, t_max)

    failures = []
    for idx, (t_start, value) in enumerate(steps):
        t_end = steps[idx + 1][0] - 1 if idx + 1 < len(steps) else t_max
        for t_probe in sorted({t_start, t_end}):
            bound = rat(profile(t_probe))
            if value > bound:
                failures.append({"t": t_probe, "psi": rat_str(value), "bound": rat_str(bound)})
    return {
        "ok": not failures,
        "t_max": t_max,
        "steps": [(t, rat_str(v)) for t, v in steps],
        "failures": failures,
    }
