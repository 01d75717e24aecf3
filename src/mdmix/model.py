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

A caller's value meets one rule of its kind: _as_count for an integer (what
operator.index takes but a bool), _as_real for a real (what float() takes
but a bool or text) and _as_items for a list (what tuple() takes but text);
one of the package's own types is refused in the words of _type_error.
A refusal is an MdmixError naming the field and, in a list, the index:
"seed: expected an int >= 0, got True".  Range checks stay with each site.

Everything in this module is immutable after construction and safe to
share across threads, but for two caches of pure values: the models that
theta_to_alpha keeps on a frequency set, and the L memos that a model
builds on first use.  Threads that share them get the same values and bits
as one thread would.
"""

from __future__ import annotations

import csv
import math
import operator
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property

from .logspace import _Memo

__all__ = [
    "AlleleFrequencies", "CountTable", "DispersionModel",
    "FrequencyFileError", "LocusFrequencies", "MdmixError", "ParameterError",
    "ProfileCounts", "SizeGuardError", "SubsetSpec", "TableError",
    "read_frequency_csv", "theta_to_alpha",
]

PROB_SUM_TOL = 1e-12


class MdmixError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(MdmixError, ValueError):
    """A parameter lies outside its mathematical domain."""


class TableError(MdmixError, ValueError):
    """A count table or margin specification is structurally invalid."""


class SizeGuardError(MdmixError, RuntimeError):
    """An exhaustive enumeration, or a table drawn by `MdmSampler`, would
    exceed its size limit (`oracle.MAX_TABLES`, `oracle.MAX_DRAW_TOTAL`)."""


class FrequencyFileError(MdmixError, ValueError):
    """An allele-frequency CSV could not be parsed or validated."""


def _as_count(value, what: str, least: int = 0,
              error: type[MdmixError] = TableError) -> int:
    """The one conversion of a caller's integer, at least least."""
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= least:
                return count
    raise error(f"{what}: expected an int >= {least}, got {value!r}")


_TEXT = (str, bytes, bytearray, memoryview)
_INT, _FLOAT = frozenset((int,)), frozenset((float,))


def _as_items(values, what: str, kind: str, error=ParameterError) -> tuple:
    """The one conversion of a caller's list, named what in a refusal."""
    try:
        if type(values) is tuple or not isinstance(values, _TEXT):
            return tuple(values)
    except TypeError:
        pass
    raise error(f"{what}: expected a list of {kind}, got {values!r}")


def _as_counts(values, what: str, least: int = 0,
               error: type[MdmixError] = TableError) -> tuple[int, ...]:
    """A list of ints by _as_items and _as_count, value k named what[k]."""
    if type(values) is not tuple:  # tuple() of a tuple is the tuple itself
        values = _as_items(values, what, "int", error)
    if values and _INT.issuperset(map(type, values)) and min(values) >= least:
        return values
    return tuple(_as_count(x, f"{what}[{k}]", least, error)
                 for k, x in enumerate(values))


def _as_real(value, what: str) -> float:
    """The one conversion of a caller's real; numpy's bool by its dtype."""
    if type(value) is float:
        return value
    if not (isinstance(value, (bool, *_TEXT))
            or getattr(getattr(value, "dtype", None), "kind", None) == "b"):
        with suppress(TypeError, ValueError, OverflowError):
            return float(value)
    raise ParameterError(f"{what}: expected float, got {value!r}")


def _type_error(value, kind: type, what: str) -> ParameterError:
    """The refusal of a caller's value that is not an instance of kind, one
    of the package's own types; each site tests isinstance itself."""
    article = "an" if kind.__name__[0] in "AEIOU" else "a"
    return ParameterError(
        f"{what}: expected {article} {kind.__name__}, got {value!r}")


def _as_positives(values, what: str) -> tuple[float, ...]:
    """A non-empty list of finite floats above 0, value k named what[k]."""
    values = _as_items(values, what, "float")
    if not _FLOAT.issuperset(map(type, values)):
        values = tuple(_as_real(x, f"{what}[{k}]")
                       for k, x in enumerate(values))
    if not values:
        raise ParameterError(f"{what}: expected a non-empty list")
    for k, x in enumerate(values):
        if not math.isfinite(x) or x <= 0.0:
            raise ParameterError(f"{what}[{k}] = {x} is not strictly positive")
    return values


@dataclass(frozen=True)
class AlleleFrequencies:
    """Allele probabilities for one locus, plus an inferred rest class.

    probs holds the named alleles, each strictly positive, summing to
    s <= 1 within 1e-12.  rest_mass is always the shortfall 1 - s, or 0.0
    when that is at most 1e-12; the rest class behaves as an ordinary
    (A+1)-th category everywhere.  rest_mass, extended_probs (the named
    probabilities plus the rest class when it carries mass), their logs and
    n_categories are computed on construction; _models is theta_to_alpha's
    cache of the models over these frequencies.
    """

    probs: tuple[float, ...]
    rest_mass: float = field(init=False)
    extended_probs: tuple[float, ...] = field(init=False, repr=False,
                                              compare=False)
    log_extended_probs: tuple[float, ...] = field(init=False, repr=False,
                                                  compare=False)
    n_categories: int = field(init=False, repr=False, compare=False)
    _models: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = _as_positives(self.probs, "probs")
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
        object.__setattr__(self, "_models", {})


def _pool_mass(theta: float, tail_mass: float = 1.0) -> float:
    """tail_mass (1 - theta) / theta for theta in [0, 1): the only check of
    a caller's theta, after _as_real.  inf at theta = 0, the multinomial
    limit, and where the quotient overflows."""
    if type(theta) is not float:  # the curve builders pass floats by the grid
        theta = _as_real(theta, "theta")
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
    ParameterError; theta = -0.0 is stored as 0.0.  The L memos of the
    direct pmf and of the chain belong to the model, outside its fields,
    so every MdmParams over it, whatever its row sums, shares them.
    """

    theta: float
    freqs: AlleleFrequencies
    alpha_total: float = field(init=False)

    def __post_init__(self):
        # adding 0.0 turns -0.0 into 0.0, whose sign covariance_matrix shows
        theta = _as_real(self.theta, "theta") + 0.0
        if not isinstance(self.freqs, AlleleFrequencies):
            raise _type_error(self.freqs, AlleleFrequencies, "freqs")
        a_total = _pool_mass(theta)
        if not a_total * min(self.freqs.extended_probs) > 0.0:
            raise ParameterError(f"theta = {theta} makes alpha 0")
        vars(self).update(theta=theta, alpha_total=a_total)

    @classmethod
    def from_alpha(cls, alpha) -> "DispersionModel":
        """Recover (theta, q) from explicit Dirichlet parameters."""
        alpha = _as_positives(alpha, "alpha")
        try:
            total = math.fsum(alpha)
        except OverflowError:
            raise ParameterError("alpha sums past the largest float") from None
        return _scaled_model(tuple(a / total for a in alpha), total)

    @property
    def alpha(self) -> tuple[float, ...]:
        """q_a alpha_total per extended category; all inf at theta = 0."""
        return tuple(map(self.alpha_total.__mul__, self.freqs.extended_probs))

    @cached_property
    def _memos(self) -> tuple[_Memo, ...]:
        """The _Memo of L at q_a alpha_total for each extended category a,
        then the one at alpha_total: the Dirichlet terms of the direct pmf
        and of factorial_moment.  Built on first use, so a model that is
        never scored holds none."""
        a_total = self.alpha_total
        return (*(_Memo(q * a_total) for q in self.freqs.extended_probs),
                _Memo(a_total))

    @cached_property
    def _steps(self) -> tuple:
        """The _chain_steps records, for the chain; built on first use over
        the category memos of _memos, so the chain and the direct pmf
        compute each L once: 2A memos in all."""
        return _chain_steps(self.freqs.extended_probs, self.alpha_total,
                            self._memos[:-1])


def _suffix_sums(values) -> list[float]:
    """suffix[a] = values[a] + ... + values[-1], and suffix[len] = 0.0."""
    suffix = [0.0] * (len(values) + 1)
    for a in range(len(values) - 1, -1, -1):
        suffix[a] = suffix[a + 1] + values[a]
    return suffix


def _chain_steps(q, scale: float, memos) -> tuple:
    """The record of the chain step into each category a but the last:
    (log Q, log(1 - Q), and the _Memo of L at q[a] scale, suffix[a+1]
    scale and pool scale) with pool = suffix[a] and Q = q[a] / pool.
    memos[a] is the memo at q[a] scale.
    suffix[a] is suffix[a+1] + q[a], the float q[a] + suffix[a+1], so
    step a's pool memo is step a-1's tail memo, and the last tail mass,
    suffix[A-1] = q[A-1], is read from memos[A-1]: 2A - 1 memos in all."""
    suffix = _suffix_sums(q)
    pools = [_Memo(x * scale) for x in suffix[:-2]] + [memos[-1]]
    return tuple((math.log(q[a] / suffix[a]),
                  math.log(suffix[a + 1] / suffix[a]),
                  memos[a], pools[a + 1], pools[a])
                 for a in range(len(q) - 1))


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


# the thetas whose models each frequency set keeps: casework reads each of
# its 20 frequency sets at 3 thetas (0, 0.01, 0.03) and simulation at most
# 2, so one more theta per set still finds each model cached
_MODEL_CACHE_SIZE = 4
_MODEL_CACHE_LOCK = threading.Lock()


def theta_to_alpha(freqs: AlleleFrequencies, theta: float) -> DispersionModel:
    """Map (q, theta) to alpha_total = (1-theta)/theta; theta = 0 maps to
    alpha_total = inf, the multinomial limit.

    For a theta of type float the model, with its L memos, comes from the
    cache on freqs of the _MODEL_CACHE_SIZE thetas added last, so repeated
    calls share it.  Any other theta is checked afresh on every call:
    False and np.False_ equal 0.0 and hash alike, so a lookup would take
    them for 0.0, though _as_real refuses them.  An error is never cached.
    A cached model and its memos live as long as freqs does; freqs and
    its models refer to each other, so a dropped frequency set is freed by
    the cycle collector, not when its last reference goes.
    """
    if type(theta) is not float or not isinstance(freqs, AlleleFrequencies):
        return DispersionModel(theta, freqs)
    models = freqs._models
    model = models.get(theta)
    if model is None:
        model = DispersionModel(theta, freqs)
        with _MODEL_CACHE_LOCK:  # readers take no lock; writers take turns
            if theta not in models and len(models) >= _MODEL_CACHE_SIZE:
                del models[next(iter(models))]
            model = models.setdefault(theta, model)
    return model


def _checked_rows(rows: tuple) -> tuple[tuple[int, ...], ...]:
    """CountTable's rows by the row-by-row rule: each row's cells by
    _as_counts, then its width; an empty table is refused last."""
    counts = []
    for i, row in enumerate(rows):
        counts.append(_as_counts(row, f"counts[{i}]"))
        width = len(counts[0])
        if width == 0:
            raise TableError("a table needs at least one allele column")
        if len(counts[i]) != width:
            raise TableError(f"row {i} has {len(counts[i])} entries, "
                             f"expected {width}")
    if not counts:
        raise TableError("counts: expected a non-empty list")
    return tuple(counts)


def _col_sums(counts) -> tuple[int, ...]:
    """The column sums of a non-empty tuple of equally long rows of ints."""
    return tuple(map(sum, zip(*counts)))


# The largest total of a CountTable: log (10**300)! is 6.9e302, so every
# log factorial and log pmf of its cells and margins stays a finite double.
_MAX_TOTAL = 10 ** 300


@dataclass(frozen=True)
class CountTable:
    """An I x A matrix of allele counts, one row per profile.

    The margins row_sums, col_sums and total are computed on construction;
    a total above 10**300 is a TableError.
    """

    counts: tuple[tuple[int, ...], ...]
    row_sums: tuple[int, ...] = field(init=False)
    col_sums: tuple[int, ...] = field(init=False)
    total: int = field(init=False)

    def __post_init__(self):
        counts = _as_items(self.counts, "counts", "lists of int", TableError)
        # the fast test: tuples of exact ints >= 0, each as wide as a first
        # row that is not empty, are taken as they are; any other input
        # goes row by row from row 0, to convert it or to name its fault.
        # Without such a first row the test meets None, and fails at once
        width = len(counts[0]) if counts and type(counts[0]) is tuple else 0
        for row in counts if width else (None,):
            if (type(row) is not tuple or len(row) != width
                    or not _INT.issuperset(map(type, row)) or min(row) < 0):
                counts = _checked_rows(counts)
                break
        row_sums = tuple(map(sum, counts))
        total = sum(row_sums)
        if total > _MAX_TOTAL:
            raise TableError("counts: the table's total is above 10**300")
        vars(self).update(counts=counts, row_sums=row_sums,
                          col_sums=_col_sums(counts), total=total)

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


def _built_table(counts, row_sums, total: int,
                 col_sums: tuple[int, ...] | None = None) -> CountTable:
    """A CountTable over counts the library built itself: a non-empty tuple
    of equally long, non-empty tuples of non-negative ints whose sums are
    row_sums and total, and col_sums when given.  Sets the fields without
    CountTable's checks and computes only col_sums, when not given."""
    if col_sums is None:
        col_sums = _col_sums(counts)
    table = object.__new__(CountTable)
    vars(table).update(counts=counts, row_sums=row_sums, col_sums=col_sums,
                       total=total)
    return table


@dataclass(frozen=True)
class ProfileCounts:
    """Allele counts for a single profile: one row of a CountTable."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = _as_counts(self.counts, "counts")
        if not counts:
            raise TableError("a profile needs at least one allele category")
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
        idx = _as_counts(self.indices, "indices", error=ParameterError)
        if not idx:
            raise ParameterError("indices: expected a non-empty list")
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


def _read_csv(path, error, header) -> list[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank row after the header of the
    UTF-8 CSV file at path, which may start with the byte-order mark that
    spreadsheet programs write; a row's number is the physical line it
    starts on, so a quoted field that spans lines does not shift later
    numbers.
    header(width) gives the lower-case fields that a first line of width
    fields must match once stripped, and every row has as many fields.  An
    empty, undecodable or malformed file, another header, a row of another
    width and a file with no rows after the header raise error naming path
    and, where there is one, the line; so does a path that holds a NUL,
    which open refuses with a ValueError."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except ValueError as err:
        raise error(f"{path!r}: {err}") from None
    rows = []
    try:
        with fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise error(f"{path}: empty file")
            want = header(len(first))
            if tuple(h.strip().lower() for h in first) != want:
                raise error(f"{path}: line 1: expected header "
                            f"{','.join(want)}, got {','.join(first)}")
            width, end = len(want), reader.line_num
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
    if not rows:
        raise error(f"{path}: no rows after the header")
    return rows


_FREQ_HEADER = ("locus", "allele", "frequency")


def read_frequency_csv(path) -> dict[str, LocusFrequencies]:
    """Parse an allele-frequency CSV with header locus,allele,frequency.

    Rows are grouped by locus in file order.  A frequency is an ASCII
    number that float() reads, with no '_', and must be strictly positive;
    a locus whose frequencies sum to s < 1 gets a rest class of mass 1 - s.
    Parse and domain errors carry the offending line number.
    """
    per_locus: dict[str, dict[str, float]] = {}
    for lineno, row in _read_csv(path, FrequencyFileError,
                                 lambda width: _FREQ_HEADER):
        locus, allele, raw = (cell.strip() for cell in row)
        if not locus or not allele:
            raise FrequencyFileError(
                f"{path}: line {lineno}: empty locus or allele name"
            )
        try:
            freq = float(raw)
        except ValueError:
            freq = None
        # float() also reads digit groups, 0.2_5, and other scripts' digits
        if freq is None or "_" in raw or not raw.isascii():
            raise FrequencyFileError(
                f"{path}: line {lineno}: frequency {raw!r} is not a number"
            )
        if not math.isfinite(freq) or freq <= 0.0:
            raise FrequencyFileError(
                f"{path}: line {lineno}: frequency {freq} is not "
                "strictly positive"
            )
        alleles = per_locus.setdefault(locus, {})
        if allele in alleles:
            raise FrequencyFileError(
                f"{path}: line {lineno}: duplicate allele {allele!r} "
                f"for locus {locus!r}"
            )
        alleles[allele] = freq
    result: dict[str, LocusFrequencies] = {}
    for locus, alleles in per_locus.items():
        try:
            freqs = AlleleFrequencies(tuple(alleles.values()))
        except ParameterError as err:
            raise FrequencyFileError(f"{path}: locus {locus!r}: {err}") from None
        result[locus] = LocusFrequencies(locus=locus,
                                         allele_names=tuple(alleles),
                                         freqs=freqs)
    return result
