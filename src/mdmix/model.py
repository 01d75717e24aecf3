"""Shared parameter and count-table types.

The model family: allele probabilities q over A categories, extended by a
"rest" class when they leave mass unlisted, and a coancestry
(overdispersion) coefficient theta in [0, 1).  The derived Dirichlet
parameters are

    alpha_a = q_a alpha_total,  alpha_total = (1 - theta) / theta,

so theta = 1 / (1 + alpha_total).  theta = 0 is the limit alpha_total =
inf, the independent multinomial; every formula downstream takes it as
that limit, with no case of its own.  The types take only what they cannot
derive: the rest class and alpha_total are computed on construction.

Everything in this module is immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field

PROB_SUM_TOL = 1e-12


class MdmixError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(MdmixError, ValueError):
    """A parameter lies outside its mathematical domain."""


class TableError(MdmixError, ValueError):
    """A count table or margin specification is structurally invalid."""


class SizeGuardError(MdmixError, RuntimeError):
    """An exhaustive enumeration would exceed the configured size limit."""


class FrequencyFileError(MdmixError, ValueError):
    """An allele-frequency CSV could not be parsed or validated."""


def _as_int(value, what: str):
    try:
        return operator.index(value)
    except TypeError:
        raise TableError(f"{what} must be an integer, got {value!r}") from None


def _as_ints(values, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints; the first one that is not an integer
    is a TableError naming it as what[k]."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for k, x in enumerate(values):
            _as_int(x, f"{what}[{k}]")
        raise


@dataclass(frozen=True)
class AlleleFrequencies:
    """Allele probabilities for one locus, plus an inferred rest class.

    probs holds the named alleles, each strictly positive, summing to
    s <= 1 within 1e-12.  rest_mass is always the shortfall 1 - s, or 0.0
    when that is at most 1e-12; the rest class behaves as an ordinary
    (A+1)-th category everywhere.  rest_mass, extended_probs (the named
    probabilities plus the rest class when it carries mass), their logs and
    n_categories are computed on construction.
    """

    probs: tuple[float, ...]
    rest_mass: float = field(init=False)
    extended_probs: tuple[float, ...] = field(init=False, repr=False,
                                              compare=False)
    log_extended_probs: tuple[float, ...] = field(init=False, repr=False,
                                                  compare=False)
    n_categories: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if not probs:
            raise ParameterError("at least one allele probability is required")
        for k, p in enumerate(probs):
            if not math.isfinite(p) or p <= 0.0:
                raise ParameterError(f"probs[{k}] = {p} is not strictly positive")
        s = math.fsum(probs)
        if s > 1.0 + PROB_SUM_TOL:
            raise ParameterError(f"probabilities sum to {s} > 1")
        rest = 1.0 - s if 1.0 - s > PROB_SUM_TOL else 0.0
        extended = probs + (rest,) if rest > 0.0 else probs
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "rest_mass", rest)
        object.__setattr__(self, "extended_probs", extended)
        object.__setattr__(self, "log_extended_probs",
                           tuple(map(math.log, extended)))
        object.__setattr__(self, "n_categories", len(extended))


def _as_theta(theta) -> float:
    """A caller's theta as a float; a bool, text (str or bytes-like) or what
    float() refuses is a ParameterError in the CLI's words."""
    if not isinstance(theta, (bool, str, bytes, bytearray, memoryview)):
        try:
            return float(theta)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ParameterError(f"theta: expected float, got {theta!r}")


def _pool_mass(theta: float, tail_mass: float = 1.0) -> float:
    """tail_mass (1 - theta) / theta for theta in [0, 1): the only check of
    a caller's theta, after _as_theta.  inf at theta = 0, the multinomial
    limit, and where the quotient overflows."""
    if type(theta) is not float:  # the curve builders pass floats by the grid
        theta = _as_theta(theta)
    if not 0.0 <= theta < 1.0:
        raise ParameterError(f"theta = {theta} outside [0, 1)")
    return tail_mass * (1.0 - theta) / theta if theta else math.inf


@dataclass(frozen=True)
class DispersionModel:
    """theta, the frequencies q and the Dirichlet mass alpha_total derived
    from theta as (1 - theta) / theta: inf at theta = 0 and where the
    quotient overflows, the one multinomial limit.

    The Dirichlet parameters over the extended categories are
    q_a alpha_total.  A theta whose q_a alpha_total underflows to 0 is a
    ParameterError; theta = -0.0 is stored as 0.0.
    """

    theta: float
    freqs: AlleleFrequencies
    alpha_total: float = field(init=False)

    def __post_init__(self):
        # adding 0.0 turns -0.0 into 0.0, whose sign covariance_matrix shows
        theta = _as_theta(self.theta) + 0.0
        a_total = _pool_mass(theta)
        if not a_total * min(self.freqs.extended_probs) > 0.0:
            raise ParameterError(f"theta = {theta} makes alpha 0")
        vars(self).update(theta=theta, alpha_total=a_total)

    @classmethod
    def from_alpha(cls, alpha) -> "DispersionModel":
        """Recover (theta, q) from explicit Dirichlet parameters."""
        alpha = tuple(float(a) for a in alpha)
        if not alpha:
            raise ParameterError("alpha must be non-empty")
        for k, a in enumerate(alpha):
            if not math.isfinite(a) or a <= 0.0:
                raise ParameterError(f"alpha[{k}] = {a} is not strictly positive")
        try:
            total = math.fsum(alpha)
        except OverflowError:
            raise ParameterError("alpha sums past the largest float") from None
        return _scaled_model(tuple(a / total for a in alpha), total)

    @property
    def alpha(self) -> tuple[float, ...]:
        """q_a alpha_total per extended category; all inf at theta = 0."""
        return tuple(map(self.alpha_total.__mul__, self.freqs.extended_probs))


def _scaled_model(probs, alpha_total: float,
                  theta: float | None = None) -> DispersionModel:
    """The model over the extended probabilities probs with an alpha_total
    in (0, inf] the library derived, and theta, 1 / (1 + alpha_total) unless
    given.  Skips DispersionModel's checks, so both keep their bits, and
    refuses only a theta that rounds to 1."""
    freqs = AlleleFrequencies(tuple(probs))
    if theta is None:
        theta = 1.0 / (1.0 + alpha_total)
    if not theta < 1.0:
        raise ParameterError(f"theta = {theta} outside [0, 1)")
    model = object.__new__(DispersionModel)
    vars(model).update(theta=theta, freqs=freqs, alpha_total=alpha_total)
    return model


def theta_to_alpha(freqs: AlleleFrequencies, theta: float) -> DispersionModel:
    """Map (q, theta) to alpha_total = (1-theta)/theta; theta = 0 maps to
    alpha_total = inf, the multinomial limit.
    """
    return DispersionModel(theta, freqs)


@dataclass(frozen=True)
class CountTable:
    """An I x A matrix of allele counts, one row per profile.

    The margins row_sums, col_sums and total are computed on construction.
    """

    counts: tuple[tuple[int, ...], ...]
    row_sums: tuple[int, ...] = field(init=False)
    col_sums: tuple[int, ...] = field(init=False)
    total: int = field(init=False)

    def __post_init__(self):
        counts = tuple(_as_ints(row, f"counts[{i}]")
                       for i, row in enumerate(self.counts))
        if not counts:
            raise TableError("a table needs at least one profile row")
        width = len(counts[0])
        if width == 0:
            raise TableError("a table needs at least one allele column")
        for i, row in enumerate(counts):
            if len(row) != width:
                raise TableError(f"row {i} has {len(row)} entries, expected {width}")
            if min(row) < 0:
                a = next(a for a, x in enumerate(row) if x < 0)
                raise TableError(f"counts[{i}][{a}] = {row[a]} is negative")
        row_sums = tuple(map(sum, counts))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "row_sums", row_sums)
        object.__setattr__(self, "col_sums", tuple(map(sum, zip(*counts))))
        object.__setattr__(self, "total", sum(row_sums))

    @property
    def n_profiles(self) -> int:
        return len(self.counts)

    @property
    def n_categories(self) -> int:
        return len(self.counts[0])


def _check_shape(name: str, table: CountTable, rows: int, cols: int,
                 error: type[MdmixError] = TableError) -> None:
    """The one shape rule of every operation that takes a table: refuse one
    that is not rows x cols with error, naming name and both shapes."""
    shape = (table.n_profiles, table.n_categories)
    if shape != (rows, cols):
        raise error(f"{name} has shape {shape[0]} x {shape[1]}, expected "
                    f"{rows} x {cols} (profiles x categories)")


def _built_table(counts, row_sums, total: int) -> CountTable:
    """A CountTable over counts the library built itself: a non-empty tuple
    of equally long, non-empty tuples of non-negative ints whose sums are
    row_sums and total.  Sets the fields without CountTable's checks and
    computes only col_sums."""
    table = object.__new__(CountTable)
    vars(table).update(counts=counts, row_sums=row_sums,
                       col_sums=tuple(map(sum, zip(*counts))), total=total)
    return table


@dataclass(frozen=True)
class ProfileCounts:
    """Allele counts for a single profile: one row of a CountTable."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = _as_ints(self.counts, "counts")
        if not counts:
            raise TableError("a profile needs at least one allele category")
        if min(counts) < 0:
            a = next(a for a, x in enumerate(counts) if x < 0)
            raise TableError(f"counts[{a}] = {counts[a]} is negative")
        object.__setattr__(self, "counts", counts)

    @property
    def n_total(self) -> int:
        return sum(self.counts)

    @property
    def n_categories(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class SubsetSpec:
    """A strictly increasing tuple of 0-based indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(_as_int(k, "subset index") for k in self.indices)
        if not idx:
            raise ParameterError("subset must be non-empty")
        if idx[0] < 0:
            raise ParameterError(f"subset index {idx[0]} is negative")
        for a, b in zip(idx, idx[1:]):
            if b <= a:
                raise ParameterError("subset indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    def validate_for(self, size: int) -> None:
        if self.indices[-1] >= size:
            raise ParameterError(
                f"subset index {self.indices[-1]} out of range for size {size}"
            )

    def complement(self, size: int) -> tuple[int, ...]:
        self.validate_for(size)
        inside = set(self.indices)
        return tuple(k for k in range(size) if k not in inside)


@dataclass(frozen=True)
class LocusFrequencies:
    """One locus from a frequency file: allele names and their frequencies."""

    locus: str
    allele_names: tuple[str, ...]
    freqs: AlleleFrequencies


def _read_csv(path, error, check_header) -> list[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank row after the header of the
    UTF-8 CSV file at path; a row's number is the physical line it starts
    on, so a quoted field that spans lines does not shift later numbers.
    check_header(header) raises on a bad header and returns the field count
    of every row.  An empty, undecodable or malformed file and a row of
    another width raise error naming path."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise error(f"{path}: empty file")
            width = check_header(header)
            end = reader.line_num
            for row in reader:
                lineno, end = end + 1, reader.line_num
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != width:
                    raise error(f"{path}: line {lineno}: expected {width} "
                                f"fields, got {len(row)}")
                rows.append((lineno, row))
    except (UnicodeDecodeError, csv.Error) as err:
        raise error(f"{path}: {err}") from None
    return rows


_FREQ_HEADER = ("locus", "allele", "frequency")


def read_frequency_csv(path) -> dict[str, LocusFrequencies]:
    """Parse an allele-frequency CSV with header locus,allele,frequency.

    Rows are grouped by locus in file order.  Frequencies must be strictly
    positive; a locus whose frequencies sum to s < 1 gets a rest class of
    mass 1 - s.  Parse and domain errors carry the offending line number.
    """
    def header_width(header):
        if tuple(h.strip().lower() for h in header) != _FREQ_HEADER:
            raise FrequencyFileError(
                f"{path}: line 1: expected header locus,allele,frequency, "
                f"got {','.join(header)}"
            )
        return len(_FREQ_HEADER)

    per_locus: dict[str, list[tuple[str, float]]] = {}
    for lineno, row in _read_csv(path, FrequencyFileError, header_width):
        locus, allele, raw = (cell.strip() for cell in row)
        if not locus or not allele:
            raise FrequencyFileError(
                f"{path}: line {lineno}: empty locus or allele name"
            )
        try:
            freq = float(raw)
        except ValueError:
            raise FrequencyFileError(
                f"{path}: line {lineno}: frequency {raw!r} is not a number"
            ) from None
        if not math.isfinite(freq) or freq <= 0.0:
            raise FrequencyFileError(
                f"{path}: line {lineno}: frequency {freq} is not "
                "strictly positive"
            )
        entries = per_locus.setdefault(locus, [])
        if any(name == allele for name, _ in entries):
            raise FrequencyFileError(
                f"{path}: line {lineno}: duplicate allele {allele!r} "
                f"for locus {locus!r}"
            )
        entries.append((allele, freq))
    if not per_locus:
        raise FrequencyFileError(f"{path}: no frequency rows found")
    result: dict[str, LocusFrequencies] = {}
    for locus, entries in per_locus.items():
        names = tuple(name for name, _ in entries)
        try:
            freqs = AlleleFrequencies(tuple(f for _, f in entries))
        except ParameterError as err:
            raise FrequencyFileError(f"{path}: locus {locus!r}: {err}") from None
        result[locus] = LocusFrequencies(locus=locus, allele_names=names,
                                         freqs=freqs)
    return result
