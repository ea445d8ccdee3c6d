"""Phase-estimation amplitude estimation.

The sampler draws outcomes from the exact outcome distribution on the two
dimensional invariant subspace of the Grover operator: an equal mixture of
two Fejer kernels centred at +-theta M / pi (mod M). It enumerates each
kernel's masses in a fixed window of offsets around its peak and reaches the
rest of the kernel by rejection sampling, so one draw costs the same time
and memory at every query count M. The dense M-outcome distribution and a
full statevector simulation of it are in tests/ae_reference.py."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ledger import QueryLedger
from .oracles import ControlledRotation, SamplingOracle

# Offsets |j| <= _WINDOW around a kernel's peak are enumerated exactly.
_WINDOW = 64


def _check_queries(queries: int) -> None:
    if queries < 2 or queries & (queries - 1):
        raise ValueError("queries must be a power of two, at least 2")


def _phase_kernel(delta: np.ndarray, queries: int) -> np.ndarray:
    """|<y|phase>|^2 for an eigenphase offset delta (in turns), M outcomes."""
    delta = np.asarray(delta, dtype=float)
    num = np.square(np.sin(np.pi * queries * delta))
    den = queries**2 * np.square(np.sin(np.pi * delta))
    frac = delta - np.floor(delta)  # np.mod(delta, 1.0) bit for bit, at a third of the cost
    on_grid = np.minimum(frac, 1.0 - frac) < 1e-15
    np.putmask(den, on_grid, 1.0)  # den is 0 only on the grid, within 1e-154 of delta = 0
    num /= den
    np.putmask(num, on_grid, 1.0)
    return num


@dataclass(eq=False)
class EstimationOperator:
    """The preparation 'A': chain preparation followed by one rotation.

    Exposes the exact flagged probability the sampler draws from, with masses
    weighing the rows of the rotation oracle's value table."""

    sampling: SamplingOracle
    rotation: ControlledRotation
    masses: np.ndarray

    @cached_property
    def amplitude(self) -> float:
        """The flagged probability a that AE estimates, computed once."""
        return self.rotation.good_amplitude_squared(self.masses)


@lru_cache(maxsize=64)
def _window(queries: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only window offsets j and, for e = ceil(phase M) - floor(phase M),
    the shifts (k - floor(phase M)) / M that the dense law
    (`ae_outcome_distribution`, tests/ae_reference.py) takes at outcomes (floor + j) mod M
    of both branches, and a 0 column for tails."""
    half = queries // 2
    offsets = np.arange(max(-_WINDOW, 1 - half), min(_WINDOW, half) + 1)
    shifts = np.zeros((2, 2, offsets.size + 1))
    shifts[:, :, :-1] = np.mod([[offsets + half, e - offsets + half] for e in (0, 1)],
                               queries) - half
    shifts /= queries
    offsets.flags.writeable = shifts.flags.writeable = False
    return offsets, shifts


def _branch_windows(phases: np.ndarray, queries: int):
    """(floors, fracs, rows) of pieces whose phases share M, from one kernel
    call: per phase, the branches peaking at c = phase * M (row 0) and at -c
    (row 1), peak = floor + frac. A row holds the dense law's kernel masses at
    outcomes (floor + j) mod M for the window offsets j, then the tail mass
    the window leaves, 0 if it covers all M. Shapes (P, 2), (P, 2), (P, 2, W)."""
    offsets, shifts = _window(queries)
    peaks = phases[:, None] * np.array([queries, -queries])  # -(phase * M) exactly
    floors = np.floor(peaks)
    # shifts[e] for e = ceil(peak) - floor(peak), offset by floor(peak) / M.
    shift = shifts[(-floors[:, 1] - floors[:, 0]).astype(int)] + (floors[:, :1] / queries)[:, None]
    rows = _phase_kernel(phases[:, None, None] - shift, queries)
    size = offsets.size
    rows[:, :, size] = 0.0 if size == queries else np.maximum(
        0.0, 1.0 - rows[:, :, :size].sum(axis=-1))
    return floors.astype(np.int64), peaks - floors, rows


def _sample_tail(floor: int, frac: float, queries: int, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """count outcomes from one branch's kernel conditioned off its window.

    Offsets j in W+1..M/2 and -(M/2-1)..-(W+1) sit at distance r = |j - frac|
    from the peak and carry mass sin^2(pi frac) / (M sin(pi r / M))^2, which
    is at most sin^2(pi frac) / (4 r^2) since M sin(pi r / M) >= 2 r for
    r <= M/2. Proposals r come from the continuous 1/r^2 law by its inverse
    CDF; the cell [r_j - 1/2, r_j + 1/2] holding r names the offset j, whose
    proposal mass is proportional to 1/(r_j^2 - 1/4) >= 1/r_j^2. Accepting
    with probability 4 (r_j^2 - 1/4) / (M sin(pi r_j / M))^2 <= 1 leaves
    draws with the kernel's conditional law; about 40% or more are kept."""
    half = queries // 2
    right_lo, right_hi = _WINDOW + 0.5 - frac, half + 0.5 - frac
    left_lo, left_hi = _WINDOW + 0.5 + frac, half - 0.5 + frac
    right_mass = 1.0 / right_lo - 1.0 / right_hi
    total = right_mass + 1.0 / left_lo - 1.0 / left_hi
    # A call draws a few outcomes, so each round works on Python floats from
    # the same two rng.random arrays; only sin stays one vectorized call.
    inv_right, inv_left, least = 1.0 / right_lo, 1.0 / left_lo, _WINDOW + 1
    out = [0] * count
    pending = list(range(count))
    while pending:
        offsets = [min(max(round(1.0 / (inv_right - v) + frac), least), half)
                   if v < right_mass else
                   -min(max(round(1.0 / (inv_left - (v - right_mass)) - frac), least), half - 1)
                   for v in (rng.random(len(pending)) * total).tolist()]
        dists = [abs(offset - frac) for offset in offsets]
        sines = np.sin([math.pi * dist / queries for dist in dists]).tolist()
        rejected = []
        for i, offset, dist, sine, w in zip(pending, offsets, dists, sines,
                                             rng.random(len(pending)).tolist()):
            scale = queries * sine
            if w * (scale * scale) < 4.0 * (dist * dist - 0.25):
                out[i] = (floor + offset) % queries
            else:
                rejected.append(i)
        pending = rejected
    return np.array(out, dtype=np.int64)


def _bill_draws(ledger: QueryLedger, queries: int, repetitions: int) -> int:
    """Bills M Grover applications per repetition and, for each, one initial
    preparation plus two per Grover application, each with its rotation;
    returns the rotation oracle's applications, two per rotation."""
    applications = (2 * queries + 1) * repetitions
    ledger.add_grover(queries * repetitions)
    ledger.add_state_preparations(applications)
    ledger.add_rotations(applications)
    return 2 * applications


# Window laws by (amplitude, M), oldest first. A law is at most 2 W + 2 CDF
# floats plus its floors and fracs: a full table takes about 0.7 MB.
_LAWS: dict = {}
_LAW_CAP = 256


def _window_laws(amplitudes: list, queries: list) -> list:
    """Per piece, the (floors, fracs, cdf) of its (amplitude, M) law: the
    branches' floors and fracs as `_branch_windows` gives them, and the CDF of
    its rows, each branch's window outcomes then that branch's tail.

    Laws missing from `_LAWS` come from one `_branch_windows` call per M and
    join the table, which then drops its oldest laws down to `_LAW_CAP`; the
    call still returns every law it asked for."""
    keys = list(zip(amplitudes, queries))
    found = {key: _LAWS.get(key) for key in keys}
    missing: dict = {}
    for key, law in found.items():
        if law is None:
            missing.setdefault(key[1], []).append(key[0])
    for m, amps in missing.items():
        phases = np.array([math.asin(math.sqrt(a)) / math.pi for a in amps])
        floors, fracs, rows = _branch_windows(phases, m)
        for a, floor, frac, cdf in zip(amps, floors.tolist(), fracs.tolist(),
                                       rows.reshape(len(amps), -1).cumsum(axis=1)):
            cdf = cdf.copy()  # a row alone, not a view holding the whole group
            cdf.flags.writeable = False
            found[a, m] = _LAWS[a, m] = (floor, frac, cdf)
    if len(_LAWS) > _LAW_CAP:
        for key in list(_LAWS)[:len(_LAWS) - _LAW_CAP]:
            _LAWS.pop(key, None)  # another thread may have dropped it already
    return [found[key] for key in keys]


def _draw_pieces(amplitudes: list, queries: list, rngs: list, repetitions: int) -> np.ndarray:
    """(pieces, repetitions) outcome estimates sin^2(pi y / M) of several AE
    calls, piece i of amplitude amplitudes[i] with queries[i] outcomes.

    Each piece's window law depends on (amplitude, M) alone, so it is read
    from the bounded table of `_window_laws`, which computes the laws it lacks
    with one `_branch_windows` call per M. Then piece by piece, in order and
    each with its own generator, one uniform per repetition picks a window
    outcome of either kernel branch or one branch's tail, and tail picks are
    rejection-sampled by `_sample_tail`. Outcome mapping and sin^2 run on
    all pieces at once."""
    laws = _window_laws(amplitudes, queries)
    lows = {m: int(_window(m)[0][0]) for m in set(queries)}
    picks = np.empty((len(laws), repetitions), dtype=np.int64)
    # Per piece, its window width and the offsets of pick 0 in either branch.
    widths, starts, tails = [], [], []
    for i, ((floor, frac, cdf), rng, m) in enumerate(zip(laws, rngs, queries)):
        width = cdf.size // 2
        widths.append(width)
        starts.append((floor[0] + lows[m], floor[1] + lows[m] - width))
        # u in (0, cdf[-1]] with side="left" never lands on a zero-mass row.
        row = picks[i] = cdf.searchsorted((1.0 - rng.random(repetitions)) * cdf[-1])
        if width <= m:  # the window leaves a tail
            for branch in (0, 1):
                in_tail = (row == (branch + 1) * width - 1).nonzero()[0]
                if in_tail.size:
                    tails.append((i, in_tail, _sample_tail(floor[branch], frac[branch], m,
                                                           in_tail.size, rng)))
    # Offsets run up from lo, so pick p is offset lo + p (branch 0) or lo + p - width.
    starts = np.array(starts, dtype=np.int64)
    queries = np.array(queries, dtype=np.int64)[:, None]
    outcomes = np.mod(picks + np.where(picks < np.array(widths)[:, None], starts[:, :1],
                                       starts[:, 1:]), queries)
    for i, in_tail, drawn in tails:
        outcomes[i, in_tail] = drawn
    return np.sin(np.pi * outcomes / queries) ** 2


def draw_ae_estimates(operator: EstimationOperator, queries: int, repetitions: int,
                      rng: np.random.Generator,
                      ledger: QueryLedger | None = None) -> np.ndarray:
    """Independent repeated M-query outcomes from the analytic distribution.

    Each draw picks, with one uniform, a window outcome of either kernel
    branch or one branch's tail; tail picks are rejection-sampled by
    `_sample_tail`. The law is `ae_outcome_distribution`'s (tests/ae_reference.py), and
    time and memory do not depend on M. Bills as `_bill_draws`, the
    rotation's oracle twice per rotation. One piece of `_draw_pieces`."""
    _check_queries(queries)
    if ledger is not None:
        operator.rotation.oracle.bill(ledger, applications=_bill_draws(ledger, queries,
                                                                       repetitions))
    return _draw_pieces([operator.amplitude], [queries], [rng], repetitions)[0]
