"""The memo layer: every per-diagram value that ftik caches lives here.

Each diagram table is keyed by ``LinkDiagram.canonical_key`` (the framed
key for the surgery sums).  Equal keys mean equal diagrams up to arc
names, so a hit returns exactly what a fresh computation would and every
memoized function stays observably pure.  The key is invariant only under
renamings that keep the order of arc ids, so the hit rate, not the
values, depends on how a diagram's arcs are named.  Only returned values
are stored: a computation that raises leaves no entry behind.

Tables: ``bracket`` (per diagram with crossings: the contraction of all
its crossings, split pieces included, without the unknot-marker factors),
``jones`` (the surgery sums store connected sublinks only, since the
alternating sum reads V of a connected sublink alone; the ``jones`` row
stores whatever diagram it is given),
``alt`` (the integral alternating sublink sum, per connected sublink
only: a split diagram's is the product of its pieces', and every caller
reads it through a sublink table),
``inverse`` (the series 1/s^(#L - 1) with s = t^(1/2) + t^(-1/2), keyed
by (#L, order) rather than by a diagram), ``conway`` (read by ``a2`` and
``psi2`` alike), ``casson`` and ``lambda2`` (framed keys), and
``lambda2_piece`` (one split piece's lambda2 sums with the framings taken
out, as (sign mask, alpha, beta) triples, keyed by the piece's
framing-free key).  These are the eight tables.  A sublink weight phi_i
has none: it is one coefficient of P, read from ``alt`` and ``inverse``.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, TypeVar

T = TypeVar("T")

_TABLES: dict[str, dict] = {
    name: {} for name in (
        "bracket", "jones", "alt", "inverse", "conway", "casson", "lambda2", "lambda2_piece")
}


def lookup(table: str, key: Hashable, compute: Callable[..., T], *args: Any) -> T:
    """The memoized value for ``key``; on a miss it is ``compute(*args)``,
    stored before it is returned."""
    values = _TABLES[table]
    value = values.get(key)
    if value is None:
        value = compute(*args)
        values[key] = value
    return value


def clear() -> None:
    """Empty every table."""
    for values in _TABLES.values():
        values.clear()
