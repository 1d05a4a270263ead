"""Frequency combinatorics for the oscillatory expansion.

Everything in this module is about bookkeeping of frequencies: base
frequencies are linear combinations (with exact rational coordinates) of a
user-declared basis of rationally independent reals, labels are multisets of
base-frequency indices, and index sets are the ordered collections of labels
present at each amplitude level.  Arithmetic on frequencies is exact, so
statements like "these three frequencies sum to zero" are decided by integer
arithmetic rather than floating-point comparison: a frequency's lookup key
is an integer tuple (``_FrequencyKey``).

The index chain is a closed form: ``U_1 = U_2`` are the zero label and the
base frequencies, and ``U_{r+1}`` is ``U_r`` followed by the frequencies of
the size-``r`` multisets of base indices that ``U_r`` lacks, each labelled by
its lexicographically first multiset.  The operand multisets of each level
(``OperandMultisets``) serve term assembly in ``expansion``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import SmallDenominatorError
from .ode_core import _nonnegative_integer

__all__ = [
    "FrequencyBasis",
    "BaseFrequency",
    "FrequencyLabel",
    "IndexSet",
    "MultiplicityRecord",
    "level_partitions",
    "OperandMultisets",
    "canonicalize",
    "extend_index_set",
    "rho",
    "build_index_chain",
    "default_delta_min",
    "format_label",
    "index_table_records",
    "format_index_table",
]


def _fraction(x) -> Fraction:
    if isinstance(x, float):
        if x != int(x):
            raise ValueError(
                f"refusing to interpret non-integer float {x!r} as an exact "
                "coordinate; pass a Fraction or a string like '1/2'"
            )
        return Fraction(int(x))
    return Fraction(x)


class FrequencyBasis:
    """Basis of rationally independent reals over which frequencies live.

    Every base frequency is a rational coordinate vector over this basis,
    and frequency equality is exact coordinate equality.  Frequencies with
    no known rational relation are declared as one basis real each, with
    unit coordinates.
    """

    def __init__(self, basis_reals=(1.0,), names=None):
        self.basis_reals = tuple(float(b) for b in basis_reals)
        if len(self.basis_reals) < 1:
            raise ValueError("a frequency basis needs at least one real")
        if names is None:
            names = tuple(f"b{k + 1}" for k in range(len(self.basis_reals)))
        self.names = tuple(names)
        if len(self.names) != len(self.basis_reals):
            raise ValueError("one name per basis real required")

    @property
    def dimension(self):
        return len(self.basis_reals)

    # -- operations on sigma values (coordinate tuples) ----------------------

    def zero_sigma(self):
        return (Fraction(0),) * self.dimension

    def sigma_add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sigma_scale(self, a, n):
        return tuple(x * n for x in a)

    def sigma_equal(self, a, b):
        return a == b

    def sigma_is_zero(self, a):
        return self.sigma_equal(a, self.zero_sigma())

    def sigma_float(self, a):
        return math.fsum(float(q) * b for q, b in zip(a, self.basis_reals))

    def sigma_string(self, a):
        """Render a sigma value as a compact exact expression, e.g. ``-1-2*sqrt(2)``."""
        parts = []
        for q, name in zip(a, self.names):
            if q == 0:
                continue
            if name == "1":
                body = str(abs(q))
            elif abs(q) == 1:
                body = name
            else:
                body = f"{abs(q)}*{name}"
            parts.append(("-" if q < 0 else "+", body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        out = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += sign + body
        return out


class BaseFrequency:
    """One base frequency: an index plus its rational coordinates."""

    def __init__(self, index, basis, coords):
        self.index = int(index)
        self.basis = basis
        self.coords = tuple(_fraction(c) for c in coords)
        if len(self.coords) != basis.dimension:
            raise ValueError("coordinate vector length must match basis dimension")
        if all(c == 0 for c in self.coords):
            raise ValueError(f"base frequency {index} must be nonzero")
        self.value = basis.sigma_float(self.coords)

    @property
    def sigma(self):
        return self.coords

    def __repr__(self):
        return f"BaseFrequency({self.index}, {self.value:g})"


@dataclass(frozen=True)
class FrequencyLabel:
    """Canonical multiset of base-frequency indices with its exact frequency.

    ``counts[m-1]`` is the number of occurrences of base frequency ``m``.
    The zero label has all counts zero and frequency exactly zero.  Within an
    index set, labels are deduplicated by frequency value, so the stored
    counts are those of the value's representative multiset: the shortest
    one, and among those the lexicographically smallest.
    """

    counts: tuple
    sigma: tuple
    float_value: float
    canonical_tuple: tuple

    @property
    def is_zero(self):
        return self.canonical_tuple == ()

    @property
    def order(self):
        return len(self.canonical_tuple)

    def __repr__(self):
        return f"Label{format_label(self.canonical_tuple)}"


def format_label(tup):
    """Human form of a label tuple: ``0`` for the zero label, ``3``, ``(1, 2)``..."""
    if not tup:
        return "0"
    if len(tup) == 1:
        return str(tup[0])
    return "(" + ", ".join(str(m) for m in tup) + ")"


def _counts_from_tuple(tup, m_count):
    """Count vector of a tuple of indices over ``{0..M}``; index 0 counts nowhere.

    An index outside ``0..M``, or one that is not an integer (an integral
    float such as ``2.0`` is one), raises ``ValueError``.
    """
    counts = [0] * (m_count + 1)
    for m in tup:
        if not 0 <= m <= m_count:
            raise ValueError(f"index {m} outside 0..{m_count}")
        i = int(m)
        if i != m:
            raise ValueError(f"index {m} is not an integer")
        counts[i] += 1
    return tuple(counts[1:])


def _sigma_from_counts(counts, basis, kappas):
    """Frequency of the multiset with ``counts[m-1]`` copies of base frequency ``m``."""
    sigma = basis.zero_sigma()
    for c, kappa in zip(counts, kappas):
        if c:
            sigma = basis.sigma_add(sigma, basis.sigma_scale(kappa.sigma, c))
    return sigma


def _tuple_from_counts(counts):
    return tuple(m for m, c in enumerate(counts, start=1) for _ in range(c))


def _zero_label(basis, m_count):
    zero = basis.zero_sigma()
    return FrequencyLabel((0,) * m_count, zero, 0.0, ())


def canonicalize(indices, basis, kappas):
    """Reduce an index tuple over ``{0..M}`` to its canonical frequency label.

    Zeros are stripped, the remaining indices sorted, and the frequency
    computed.  A tuple whose frequency sum is exactly zero collapses to the
    zero label regardless of its indices.  An index outside ``0..M`` raises
    ``ValueError``.
    """
    counts = _counts_from_tuple(indices, len(kappas))
    sigma = _sigma_from_counts(counts, basis, kappas)
    if basis.sigma_is_zero(sigma):
        return _zero_label(basis, len(kappas))
    return FrequencyLabel(counts, sigma, basis.sigma_float(sigma), _tuple_from_counts(counts))


def _repeat_factorials(tup):
    """Product of ``m!`` over the runs of ``m`` equal entries of a sorted tuple."""
    out = 1
    for _, group in itertools.groupby(tup):
        out *= math.factorial(len(list(group)))
    return out


def _multiset_permutations_count(tup):
    return math.factorial(len(tup)) // _repeat_factorials(tup)


def level_partitions(r):
    """Partitions of ``r``: nondecreasing tuples of positive parts summing to
    ``r``, by number of parts, each number's lexicographic."""
    return [
        parts
        for n in range(1, r + 1)
        for parts in itertools.combinations_with_replacement(range(1, r - n + 2), n)
        if sum(parts) == r
    ]


class _FrequencyKey:
    """A count vector's frequency as an integer tuple: its lookup key.

    The base frequencies' coordinates are scaled once by the common
    denominator of all of them, so a key is one integer dot product per
    basis real, and two count vectors have the same frequency exactly when
    they have the same key; no ``Fraction`` is made.  Keys add as the
    frequencies do.
    """

    def __init__(self, kappas):
        self.scale = math.lcm(*(q.denominator for kappa in kappas for q in kappa.coords))
        self.columns = list(zip(*((int(q * self.scale) for q in kappa.coords) for kappa in kappas)))

    def __call__(self, counts):
        return tuple(sum(map(operator.mul, counts, column)) for column in self.columns)

    def sigma(self, key):
        """The frequency whose key is ``key``, as a coordinate tuple."""
        return tuple(Fraction(k, self.scale) for k in key)


class OperandMultisets:
    """The operand multisets of each level of one index chain.

    The operands of a partition of ``r`` (``level_partitions``) are drawn
    from the chain: a run of ``k`` equal parts ``l`` draws ``k`` labels of
    ``chain[l]`` with replacement; runs combine as a product.  A run's
    entries are made once, on first use, and serve every level that draws
    the run.  An entry holds its operands' node keys ``(level, label
    tuple)``, the sum of their frequency keys (``_FrequencyKey``), and
    ``prod(m_i!)`` with ``m_i`` the repeats of one operand.  Pools are in
    canonical-tuple order and a partition's parts are nondecreasing, so a
    multiset's operands come out sorted.  A build makes one instance and
    drops it, with its run lists, when it returns.
    """

    def __init__(self, chain, basis, kappas):
        self.chain = chain
        self.basis = basis
        self.key_of = _FrequencyKey(kappas)
        self._pools = {}
        self._runs = {}
        self._by_key = {}
        self._weights = {}

    def _pool(self, level):
        """``chain[level]``'s labels in canonical-tuple order, with node and frequency keys."""
        if level not in self._pools:
            labels = sorted(self.chain[level].labels, key=operator.attrgetter("canonical_tuple"))
            names = [(level, label.canonical_tuple) for label in labels]
            self._pools[level] = labels, names, [self.key_of(label.counts) for label in labels]
        return self._pools[level]

    def _run(self, level, k):
        if (level, k) not in self._runs:
            _, names, keys = self._pool(level)
            self._runs[(level, k)] = [
                (
                    tuple(map(names.__getitem__, picks)),
                    tuple(map(sum, zip(*map(keys.__getitem__, picks)))),
                    _repeat_factorials(picks),
                )
                for picks in itertools.combinations_with_replacement(range(len(names)), k)
            ]
        return self._runs[(level, k)]

    def _keyed(self, level, k):
        """A run's entries by frequency key, the keys in order of first entry."""
        if (level, k) not in self._by_key:
            index = {}
            for entry in self._run(level, k):
                index.setdefault(entry[1], []).append(entry)
            self._by_key[(level, k)] = index
        return self._by_key[(level, k)]

    def level(self, r, zero_only=False):
        """Yield ``(operands, label, weight)`` for each level-``r`` multiset:
        its sorted operand keys, the label of ``chain[r + 1]`` with its
        frequency, and ``1/prod(m_i!)``, the total ``1/n!`` of the
        multiset's orderings.  Multisets with equal weights share one
        ``Fraction``.

        With ``zero_only``, only the multisets of zero frequency are walked.
        For each partition the next set is first checked against every sum
        of one distinct key per piece.  Then, for each product of all but
        the last piece, the last piece's entries with the negated key are
        looked up.  A frequency missing from the next set raises
        ``AssertionError`` naming it: the first multiset's, or with
        ``zero_only`` the first sum's, in walk order.
        """
        labels, _, keys = self._pool(r + 1)
        find = dict(zip(keys, labels)).get
        zero = (0,) * len(self.key_of.columns)
        for parts in level_partitions(r):
            *head, last = [(level, len(list(group))) for level, group in itertools.groupby(parts)]
            if zero_only:
                sums = {zero: None}
                for piece in head + [last]:
                    pairs = itertools.product(sums, self._keyed(*piece))
                    sums = dict.fromkeys(tuple(map(operator.add, s, k)) for s, k in pairs)
                for key in sums:
                    if find(key) is None:
                        raise self._missing(r, key)
            partials = [((), zero, 1)]
            for piece in head:
                partials = [
                    (names + more, tuple(map(operator.add, key, add)), den * d)
                    for names, key, den in partials
                    for more, add, d in self._run(*piece)
                ]
            for names, key, den in partials:
                if zero_only:
                    tail = self._keyed(*last).get(tuple(-k for k in key), ())
                else:
                    tail = self._run(*last)
                for more, add, d in tail:
                    total = tuple(map(operator.add, key, add))
                    label = find(total)
                    if label is None:
                        raise self._missing(r, total)
                    weight = self._weights.get(den * d)
                    if weight is None:
                        weight = self._weights[den * d] = Fraction(1, den * d)
                    yield names + more, label, weight

    def _missing(self, r, key):
        sigma = self.basis.sigma_string(self.key_of.sigma(key))
        return AssertionError(f"level-{r} term frequency {sigma} missing from the next index set")


@dataclass(frozen=True)
class MultiplicityRecord:
    """Resonance count: ordered rearrangements of a source tuple hitting the
    frequency of the label whose row holds the record."""

    source_tuple: tuple
    rho: int


def rho(target, source_tuple, basis, kappas):
    """Number of ordered rearrangements of ``source_tuple`` whose frequency sum
    equals the target's frequency (index 0 contributes zero)."""
    sigma = _sigma_from_counts(_counts_from_tuple(source_tuple, len(kappas)), basis, kappas)
    if not basis.sigma_equal(sigma, target.sigma):
        return 0
    return _multiset_permutations_count(tuple(sorted(source_tuple)))


class IndexSet:
    """Ordered labels present at one amplitude level.

    At level ``r >= 1`` the labels are the zero label and one label per
    distinct nonzero frequency of a multiset of at most ``max(r - 1, 1)``
    base indices, in the natural order: the zero label, then singletons,
    then pairs, then triplets, each group lexicographic.  Because every
    extension only appends, the labels of level ``k`` form a prefix of the
    labels of any later level; a lower level's labels are read from its own
    set in the index chain (``build_index_chain``), not sliced out of this one.
    """

    def __init__(self, r, labels):
        self.r = int(r)
        self.labels = list(labels)

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def finder(self, key_of):
        """Function ``key -> label``: this set's label whose frequency key,
        by ``key_of`` (a ``_FrequencyKey``), is ``key``, or None."""
        return {key_of(label.counts): label for label in self.labels}.get

    def __repr__(self):
        return f"IndexSet(r={self.r}, {[format_label(l.canonical_tuple) for l in self.labels]})"


def default_delta_min(kappas):
    """Safety threshold below which a nonzero generated frequency is rejected."""
    return 1e-8 * max(abs(k.value) for k in kappas)


def base_index_set(basis, kappas):
    """Level-0 index set: the base frequencies themselves, no zero label."""
    labels = []
    for kappa in kappas:
        counts = tuple(1 if j == kappa.index - 1 else 0 for j in range(len(kappas)))
        labels.append(
            FrequencyLabel(counts, kappa.sigma, basis.sigma_float(kappa.sigma), (kappa.index,))
        )
    return IndexSet(0, labels)


def first_index_set(basis, kappas):
    """Level-1 index set: the zero label followed by the base frequencies."""
    labels = [_zero_label(basis, len(kappas))] + list(base_index_set(basis, kappas))
    return IndexSet(1, labels)


def extend_index_set(index_set, basis, kappas, delta_min=None):
    """The index set of level ``r + 1``, where ``r >= 1`` is the level of
    ``index_set``: its labels, then the frequencies of the size-``r``
    multisets of base indices that it lacks.

    ``U_r`` already holds every frequency of a multiset of fewer than ``r``
    base indices, so each new frequency has no shorter representative; its
    label is the lexicographically first size-``r`` multiset with that
    frequency, and the new labels come in that order.  Frequencies are
    compared by their integer keys (``IndexSet.finder``); a ``Fraction``
    frequency is made only for each new label.  A new nonzero
    frequency smaller in magnitude than ``delta_min`` aborts with a
    diagnostic naming the offending multiset.
    """
    if index_set.r < 1 or not index_set.labels or not index_set.labels[0].is_zero:
        raise ValueError("extension starts from a level >= 1 set containing the zero label")
    if delta_min is None:
        delta_min = default_delta_min(kappas)
    m_count = len(kappas)
    key_of = _FrequencyKey(kappas)
    find = index_set.finder(key_of)
    new = {}  # key -> lexicographically first multiset with that frequency
    for tup in itertools.combinations_with_replacement(range(1, m_count + 1), index_set.r):
        key = key_of(_counts_from_tuple(tup, m_count))
        if find(key) is None:
            new.setdefault(key, tup)

    new_labels = [canonicalize(tup, basis, kappas) for tup in new.values()]
    for label in new_labels:
        if abs(label.float_value) < delta_min:
            raise SmallDenominatorError(
                f"generated frequency {basis.sigma_string(label.sigma)} ~ {label.float_value:.3e} "
                f"from combination {format_label(label.canonical_tuple)} is below "
                f"delta_min={delta_min:.3e}",
                label=label.canonical_tuple,
                sigma=label.float_value,
            )
    return IndexSet(index_set.r + 1, index_set.labels + new_labels)


def build_index_chain(basis, kappas, r_max, delta_min=None):
    """Index sets for levels ``0..r_max`` (``U_2`` always equals ``U_1``)."""
    if r_max < 0:
        raise ValueError(f"level r_max={r_max} must be nonnegative")
    r_max = _nonnegative_integer("level r_max", r_max)
    chain = [base_index_set(basis, kappas)]
    if r_max >= 1:
        chain.append(first_index_set(basis, kappas))
    for _ in range(1, r_max):
        chain.append(extend_index_set(chain[-1], basis, kappas, delta_min))
    return chain


# -- text table -------------------------------------------------------------


def index_table_records(index_set, basis, kappas):
    """Rows (label, sigma string, sigma float, nonzero multiplicity records).

    Multiplicities are taken over all sorted source tuples of length ``r - 1``
    over ``{0..M}``, which is the natural source length for a level-``r`` set.
    Each source's frequency is summed and looked up once; a label's records
    are the sources with its frequency, in source order.
    """
    m_count = len(kappas)
    src_len = max(index_set.r - 1, 0)
    key_of = _FrequencyKey(kappas)
    find = index_set.finder(key_of)
    sources = {}
    for src in itertools.combinations_with_replacement(range(m_count + 1), src_len) if src_len else ():
        label = find(key_of(_counts_from_tuple(src, m_count)))
        if label is not None:
            sources.setdefault(label.canonical_tuple, []).append(src)
    rows = []
    for label in index_set.labels:
        records = [
            MultiplicityRecord(src, _multiset_permutations_count(src))
            for src in sources.get(label.canonical_tuple, ())
        ]
        rows.append((label, basis.sigma_string(label.sigma), label.float_value, records))
    return rows


def format_index_table(index_set, basis, kappas):
    """Three-column text table of an index set: label, frequency, multiplicities."""
    lines = ["m | sigma | sigma_float | rho"]
    for label, sig_str, sig_float, records in index_table_records(index_set, basis, kappas):
        rho_cell = ", ".join(
            "rho^{%s}_{%s} = %d"
            % (
                ",".join(str(m) for m in label.canonical_tuple) or "0",
                ",".join(str(m) for m in rec.source_tuple),
                rec.rho,
            )
            for rec in records
        )
        lines.append(
            "%s | %s | %s | %s"
            % (format_label(label.canonical_tuple), sig_str, "%.17g" % sig_float, rho_cell)
        )
    return "\n".join(lines) + "\n"
