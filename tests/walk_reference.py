"""Reference for the phase walk.

`reference_absorbing_walk` is the walk that `phase_type.absorbing_walk`
replaced: lockstep walks that gather a budget column per step, compare
against every move column and pack the walks that go on with integer
gathers, allocating each step's arrays anew. The tests hold the
buffered walk to it bit for bit: times, exit phases and exit kinds."""

from __future__ import annotations

import numpy as np


def reference_absorbing_walk(hold, cum, law, phase, budget, more):
    """Lockstep absorbing walks, one per entry of `law` and `phase`.

    Walk k follows law `law[k]` of a `walk_table` from phase `phase[k]`.
    Each step takes two uniforms: the first draws the hold time, the
    second the move. Step s of walk k reads budget[k, 2s:2s+2]; once
    every column is spent, `more()` returns the next budget, an array
    of any even width with one row per walk. Returns the absorption
    times, the exit phases and the exit kinds (the index among the
    table's exit columns).
    """
    p = cum.shape[1]
    hold = hold.ravel()
    moves = cum.reshape(len(hold), -1).T.copy()  # one column of cum a row
    t = np.zeros(len(law))
    phase = np.array(phase, dtype=np.intp)
    kind = np.zeros(len(law), dtype=np.intp)
    # the walks not yet absorbed, their laws' first table rows, their
    # phases and their times; integer gathers, as masks cost 4x more
    live = np.arange(len(law))
    base = np.asarray(law, dtype=np.intp) * p
    at = phase.copy()
    clock = np.zeros(len(law))
    col = 0
    while live.size:
        if col == budget.shape[1]:
            budget, col = more(), 0
        row = base + at
        h = hold[row]
        clock -= np.log1p(-budget[:, col].take(live)) / h
        x = budget[:, col + 1].take(live) * h
        col += 2
        pick = sum(c.take(row) <= x for c in moves)
        out, stay = np.flatnonzero(pick >= p), np.flatnonzero(pick < p)
        done = live[out]
        t[done], phase[done], kind[done] = clock[out], at[out], pick[out] - p
        live, base, at, clock = live[stay], base[stay], pick[stay], clock[stay]
    return t, phase, kind
