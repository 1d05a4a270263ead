"""Frequency combinatorics for the oscillatory expansion.

Everything in this module is about bookkeeping of frequencies: base
frequencies are linear combinations (with exact rational coordinates) of a
user-declared basis of rationally independent reals, labels are multisets of
base-frequency indices, each kept as its sorted index tuple, and index sets
are the ordered collections of labels present at each amplitude level.
Frequency arithmetic is exact and has one form: a frequency is one integer,
its key (``_FrequencyKey``), which packs its scaled integer coordinates into
digits wide enough never to carry.  Every sum, equality and zero test, such
as "these three frequencies sum to zero", is an integer sum, equality or
zero test on those keys, never a floating-point comparison.  ``Fraction``
coordinates are only a label's stored and printed value; a nonzero label's
are decoded from its key (``_FrequencyKey.sigma``).

The index chain is a closed form: ``U_0`` holds the base frequencies,
``U_1 = U_2`` the zero label and the base frequencies, and ``U_{r+1}`` is
``U_r`` followed by the frequencies of the size-``r`` multisets of base
indices that ``U_r`` lacks, each labelled by its lexicographically first
multiset (``build_index_chain``).  The operand multisets of each level
(``OperandMultisets``) serve term assembly in ``expansion``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import SmallDenominatorError
from .ode_core import _finite_positive, _nonnegative_integer

__all__ = [
    "FrequencyBasis",
    "BaseFrequency",
    "FrequencyLabel",
    "IndexSet",
    "MultiplicityRecord",
    "level_partitions",
    "OperandMultisets",
    "canonicalize",
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

    Every base frequency is a rational coordinate vector over this basis.
    Frequencies with no known rational relation are declared as one basis
    real each, with unit coordinates.  The basis only evaluates and prints
    coordinate tuples; frequencies are summed and compared on their integer
    keys (``_FrequencyKey``).
    """

    def __init__(self, basis_reals=(1.0,), names=None):
        self.basis_reals = tuple(float(b) for b in basis_reals)
        if len(self.basis_reals) < 1:
            raise ValueError("a frequency basis needs at least one real")
        for k, b in enumerate(self.basis_reals):
            if not (math.isfinite(b) and b != 0.0):
                raise ValueError(
                    f"basis real {k + 1} is {b!r}; every basis real must be finite and nonzero"
                )
        if names is None:
            names = tuple(f"b{k + 1}" for k in range(len(self.basis_reals)))
        self.names = tuple(names)
        if len(self.names) != len(self.basis_reals):
            raise ValueError("one name per basis real required")

    @property
    def dimension(self):
        return len(self.basis_reals)

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
        self.sigma = tuple(_fraction(c) for c in coords)
        if len(self.sigma) != basis.dimension:
            raise ValueError("coordinate vector length must match basis dimension")
        if all(c == 0 for c in self.sigma):
            raise ValueError(f"base frequency {index} must be nonzero")
        self.value = basis.sigma_float(self.sigma)

    def __repr__(self):
        return f"BaseFrequency({self.index}, {self.value:g})"


@dataclass(frozen=True)
class FrequencyLabel:
    """Canonical multiset of base-frequency indices with its exact frequency.

    ``canonical_tuple`` is the multiset's sorted indices; the zero label's
    is ``()`` and its frequency exactly zero.  Within an index set, labels
    are deduplicated by frequency value, so the stored tuple is the value's
    representative multiset: the shortest one, and among those the
    lexicographically smallest.
    """

    sigma: tuple
    float_value: float
    canonical_tuple: tuple

    @property
    def is_zero(self):
        return self.canonical_tuple == ()

    def __repr__(self):
        return f"Label{format_label(self.canonical_tuple)}"


def format_label(tup):
    """Human form of a label tuple: ``0`` for the zero label, ``3``, ``(1, 2)``..."""
    if not tup:
        return "0"
    if len(tup) == 1:
        return str(tup[0])
    return "(" + ", ".join(str(m) for m in tup) + ")"


def _checked_indices(tup, m_count):
    """A caller's tuple of indices over ``{0..M}``, as ints in its order.

    An index outside ``0..M``, or one that is not an integer (an integral
    float such as ``2.0`` is one), raises ``ValueError``.
    """
    out = []
    for m in tup:
        if not 0 <= m <= m_count:
            raise ValueError(f"index {m} outside 0..{m_count}")
        i = int(m)
        if i != m:
            raise ValueError(f"index {m} is not an integer")
        out.append(i)
    return tuple(out)


def _zero_label(basis):
    return FrequencyLabel((Fraction(0),) * basis.dimension, 0.0, ())


def _label(tup, key, key_of, basis):
    """The label of the sorted index tuple ``tup``, whose frequency key is
    ``key``: the zero label when ``key`` is zero."""
    if not key:
        return _zero_label(basis)
    sigma = key_of.sigma(key)
    return FrequencyLabel(sigma, basis.sigma_float(sigma), tup)


def canonicalize(indices, basis, kappas):
    """Reduce an index tuple over ``{0..M}`` to its canonical frequency label.

    Zeros are stripped and the remaining indices sorted.  A tuple whose
    frequency sum is exactly zero collapses to the zero label regardless of
    its indices.  An index outside ``0..M`` raises ``ValueError``.
    """
    tup = tuple(sorted(filter(None, _checked_indices(indices, len(kappas)))))
    key_of = _FrequencyKey(kappas)
    return _label(tup, key_of(tup), key_of, basis)


def _repeat_factorials(tup):
    """Product of ``m!`` over the runs of ``m`` equal entries of a sorted tuple."""
    out = run = 1
    for previous, item in itertools.pairwise(tup):
        run = run + 1 if item == previous else 1
        out *= run
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
    """A multiset's frequency as one integer: its lookup key.

    The base frequencies' coordinates are scaled once by the common
    denominator of all of them, so each is an integer vector.  Each base
    frequency's vector is packed into one integer weight of balanced
    base-``R`` digits, one digit per basis real, and the key of a tuple of
    indices over ``{0..M}`` is the sum of its indices' weights; index 0
    weighs 0.  So a frequency is one integer, and sums, equality and zero
    tests are integer operations.

    The radix comes from the data: ``R = 2**b``, with ``b`` the bit length
    of the largest absolute scaled coordinate plus 64.  A coordinate of a
    sum or difference of fewer than ``2**63`` base frequencies is then
    smaller than ``R/2`` in magnitude, so the digits never carry, and a
    balanced base-``R`` representation with such digits is unique.  No
    index chain can be built that deep, so two tuples have the same key
    exactly when they have the same frequency, a key is 0 exactly when
    its frequency is zero, and keys add and negate as the frequencies do.
    A fixed radix could carry for large coordinates and merge distinct
    frequencies.  This is the module's one frequency arithmetic: ``sigma``
    only turns a key into the ``Fraction`` coordinates a label stores and
    prints.
    """

    def __init__(self, kappas):
        self.scale = math.lcm(*(q.denominator for kappa in kappas for q in kappa.sigma))
        vectors = [[int(q * self.scale) for q in kappa.sigma] for kappa in kappas]
        self.bits = max(map(abs, itertools.chain(*vectors)), default=0).bit_length() + 64
        self.dimension = max(map(len, vectors), default=0)
        self.weights = [0] + [
            sum(c << (self.bits * j) for j, c in enumerate(vector)) for vector in vectors
        ]

    def __call__(self, tup):
        return sum(map(self.weights.__getitem__, tup))

    def sigma(self, key):
        """The frequency whose key is ``key``, as a coordinate tuple."""
        radix = 1 << self.bits
        coords = []
        for _ in range(self.dimension):
            digit = key % radix
            if digit >= radix >> 1:
                digit -= radix
            coords.append(Fraction(digit, self.scale))
            key = (key - digit) >> self.bits
        return tuple(coords)


class OperandMultisets:
    """The operand multisets of each level of one index chain.

    The operands of a partition of ``r`` (``level_partitions``) are drawn
    from the chain: a run of ``k`` equal parts ``l`` draws ``k`` labels of
    ``chain[l]`` with replacement; runs combine as a product.  A run's
    entries are made once, on first use, and serve every level that draws
    the run.  An entry holds its operands' node keys ``(level, label
    tuple)``, its frequency as one integer, the sum of the keys
    (``_FrequencyKey``) of its operands' tuples, and ``prod(m_i!)`` with
    ``m_i`` the repeats of one operand.  Pools are in canonical-tuple order
    and a partition's parts are nondecreasing, so a multiset's operands come
    out sorted.  A build makes one instance and drops it, with its run
    lists, when it returns.
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
            keys = [self.key_of(label.canonical_tuple) for label in labels]
            self._pools[level] = labels, names, keys
        return self._pools[level]

    def _run(self, level, k):
        if (level, k) not in self._runs:
            _, names, keys = self._pool(level)
            self._runs[(level, k)] = [
                (
                    tuple(map(names.__getitem__, picks)),
                    sum(map(keys.__getitem__, picks)),
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

        Keys are integers, so a multiset's key is its pieces' keys added,
        and a frequency is zero exactly when its key is 0.  With
        ``zero_only``, only the multisets of zero frequency are walked.  For
        each partition the next set is first checked against every sum of
        one distinct key per piece.  Then, for each product of all but the
        last piece, the last piece's entries with the negated key are
        looked up.  A frequency missing from the next set raises
        ``AssertionError`` naming it: the first multiset's, or with
        ``zero_only`` the first sum's, in walk order.
        """
        labels, _, keys = self._pool(r + 1)
        find = dict(zip(keys, labels)).get
        for parts in level_partitions(r):
            *head, last = [(level, len(list(group))) for level, group in itertools.groupby(parts)]
            if zero_only:
                sums = {0: None}
                for piece in head + [last]:
                    pairs = itertools.product(sums, self._keyed(*piece))
                    sums = dict.fromkeys(s + k for s, k in pairs)
                for key in sums:
                    if find(key) is None:
                        raise self._missing(r, key)
            partials = [((), 0, 1)]
            for piece in head:
                partials = [
                    (names + more, key + add, den * d)
                    for names, key, den in partials
                    for more, add, d in self._run(*piece)
                ]
            for names, key, den in partials:
                if zero_only:
                    tail = self._keyed(*last).get(-key, ())
                else:
                    tail = self._run(*last)
                for more, add, d in tail:
                    total = key + add
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
    source = _checked_indices(source_tuple, len(kappas))
    key_of = _FrequencyKey(kappas)
    if key_of(source) != key_of(target.canonical_tuple):
        return 0
    return _multiset_permutations_count(tuple(sorted(source)))


class IndexSet:
    """The ordered labels of amplitude level ``r``, as ``build_index_chain``
    makes them.  A lower level's labels are a prefix of a higher level's;
    they are read from the lower level's own set, not sliced out of this one.
    """

    def __init__(self, r, labels):
        self.r = int(r)
        self.labels = list(labels)

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __repr__(self):
        return f"IndexSet(r={self.r}, {[format_label(l.canonical_tuple) for l in self.labels]})"


def default_delta_min(kappas):
    """Safety threshold below which a nonzero generated frequency is rejected."""
    return 1e-8 * max(abs(k.value) for k in kappas)


def _check_base_frequencies(basis, kappas, delta_min):
    """SmallDenominatorError naming the first base frequency that is zero or
    smaller than ``delta_min`` in magnitude."""
    for kappa in kappas:
        # zero tested on its own: default_delta_min is 0 when every base
        # frequency is
        if kappa.value == 0.0 or abs(kappa.value) < delta_min:
            below = "zero" if kappa.value == 0.0 else f"below delta_min={delta_min:.3e}"
            raise SmallDenominatorError(
                f"base frequency {basis.sigma_string(kappa.sigma)} ~ {kappa.value:.3e} "
                f"of index {kappa.index} is {below}",
                label=(kappa.index,),
                sigma=kappa.value,
            )


def build_index_chain(basis, kappas, r_max, delta_min=None):
    """The index sets ``U_0..U_{r_max}`` of the module docstring, in one pass.

    ``U_0`` has one label per base frequency, under its own ``sigma``, even
    where two coincide.  ``U_1`` puts the zero label in front of them, and
    each level ``r >= 1`` walks the size-``(r - 1)`` multisets of base
    indices in lexicographic order, against one running set of the
    frequency keys (``_FrequencyKey``) seen so far, and appends a label for
    each new key; at levels 1 and 2 every key has been seen.

    ``delta_min`` (None for ``default_delta_min``) must be finite and
    positive, or a ``ValueError`` names it; a new frequency smaller in
    magnitude raises ``SmallDenominatorError`` naming its multiset.  A base
    frequency that is zero aborts before any level is made; one smaller
    than ``delta_min`` aborts after every level is made.  Both diagnostics
    name the base frequency.
    """
    r_max = _nonnegative_integer("level r_max", r_max)
    delta_min = default_delta_min(kappas) if delta_min is None else _finite_positive("delta_min", delta_min)
    _check_base_frequencies(basis, kappas, 0.0)
    m_count = len(kappas)
    key_of = _FrequencyKey(kappas)
    singles = [
        FrequencyLabel(kappa.sigma, basis.sigma_float(kappa.sigma), (kappa.index,))
        for kappa in kappas
    ]
    chain = [IndexSet(0, singles)]
    labels = [_zero_label(basis)] + singles
    seen = {key_of(label.canonical_tuple) for label in labels}
    for r in range(1, r_max + 1):
        for tup in itertools.combinations_with_replacement(range(1, m_count + 1), r - 1):
            key = key_of(tup)
            if key in seen:
                continue
            seen.add(key)
            label = _label(tup, key, key_of, basis)
            if abs(label.float_value) < delta_min:
                raise SmallDenominatorError(
                    f"generated frequency {basis.sigma_string(label.sigma)} ~ "
                    f"{label.float_value:.3e} from combination "
                    f"{format_label(label.canonical_tuple)} is below delta_min={delta_min:.3e}",
                    label=label.canonical_tuple,
                    sigma=label.float_value,
                )
            labels.append(label)
        chain.append(IndexSet(r, labels))
    _check_base_frequencies(basis, kappas, delta_min)
    return chain


# -- text table -------------------------------------------------------------


def index_table_records(index_set, basis, kappas):
    """Rows (label, sigma string, sigma float, nonzero multiplicity records).

    Multiplicities are taken over all sorted source tuples of length ``r - 1``
    over ``{0..M}``, which is the natural source length for a level-``r`` set.
    Each source's frequency is summed and looked up once; a label's records
    are the sources with its frequency, in source order.
    """
    src_len = max(index_set.r - 1, 0)
    key_of = _FrequencyKey(kappas)
    find = {key_of(label.canonical_tuple): label for label in index_set.labels}.get
    sources = {}
    for src in itertools.combinations_with_replacement(range(len(kappas) + 1), src_len) if src_len else ():
        label = find(key_of(src))
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
