"""Seeded input generators: graphs, request streams and delta streams.

Everything here is a pure function of its seed, so a workload's inputs
can be rebuilt exactly (the correctness check replays the delta stream
on a fresh copy of the graph).  The community graph follows the shape
the repository's older perf script uses, re-stated here so that edits
elsewhere cannot change the benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: Nodes per community of the serving graph.
COMMUNITY = 50
#: Serving-graph size: 100k nodes, ~1M undirected edges.
SERVING_NODES = 100_000
SERVING_REPS = 12
#: Tolerance every serving request claims.
SERVING_TOL = 1e-8


def community_arrays(n: int, community: int, reps: int, seed: int):
    """Edge arrays of a ring of dense communities.

    Each node links to ``reps`` random peers inside its
    ``community``-sized block, and one bridge edge joins consecutive
    blocks: personalised mass from a few seeds stays in a small
    neighbourhood while global mixing is slow.
    """
    if n % community:
        raise ValueError(f"n={n} is not a multiple of community={community}")
    rng = np.random.default_rng([seed, 1])
    u = np.repeat(np.arange(n, dtype=np.int64), reps)
    offsets = rng.integers(1, community, size=u.size)
    v = (u // community) * community + (u % community + offsets) % community
    bridge_u = np.arange(0, n, community, dtype=np.int64)
    bridge_v = (bridge_u + community) % n
    rows = np.concatenate([u, bridge_u])
    cols = np.concatenate([v, bridge_v])
    keep = rows != cols
    return rows[keep], cols[keep]


def serving_graph(seed: int, n: int = SERVING_NODES, reps: int = SERVING_REPS):
    """The seeded community graph both serving workloads run on."""
    from repro.graph import Graph

    rows, cols = community_arrays(n, COMMUNITY, reps, seed)
    return Graph.from_arrays(rows, cols, num_nodes=n)


def sparse_seed_request(rng: np.random.Generator, n: int, tol: float = SERVING_TOL):
    """d2pr at p=1 with 1–3 seeds inside one community."""
    from repro.serving import RankRequest

    block = int(rng.integers(0, n // COMMUNITY)) * COMMUNITY
    count = int(rng.integers(1, 4))
    seeds = block + rng.choice(COMMUNITY, count, replace=False)
    return RankRequest(
        method="d2pr", p=1.0, seeds=[int(s) for s in seeds], tol=tol
    )


def personalized_requests(seed: int, count: int, n: int = SERVING_NODES):
    """``count`` distinct sparse-seed requests (the cache always misses)."""
    rng = np.random.default_rng([seed, 2])
    out, seen = [], set()
    while len(out) < count:
        request = sparse_seed_request(rng, n)
        key = tuple(sorted(request.seeds))
        if key in seen:
            continue
        seen.add(key)
        out.append(request)
    return out


def localized_delta(edges, block_start: int, span: int, ops: int,
                    rng: np.random.Generator):
    """Rewire ~``ops`` edges inside ``[block_start, block_start + span)``.

    Half the ops delete existing intra-block edges, half insert fresh
    intra-community edges, so the delta stays localized (the regime
    the service corrects cached answers in rather than evicting them).
    """
    from repro.graph import GraphDelta

    rows, cols = edges
    lo, hi = block_start, block_start + span
    inside = np.flatnonzero((rows >= lo) & (rows < hi) & (cols >= lo) & (cols < hi))
    k = min(inside.size // 2, ops // 2)
    removed = np.sort(rng.choice(inside, k, replace=False))
    ins_r = rng.integers(lo, hi, k)
    ins_c = (ins_r // COMMUNITY) * COMMUNITY + (
        ins_r % COMMUNITY + rng.integers(1, COMMUNITY, k)
    ) % COMMUNITY
    keep = ins_r != ins_c
    return GraphDelta.delete(rows[removed], cols[removed]) | GraphDelta.insert(
        ins_r[keep], ins_c[keep]
    )


def delta_stream(edges, n: int, count: int, seed: int, ops: int,
                 span: int = 4 * COMMUNITY):
    """``count`` localized deltas on pairwise-disjoint node blocks.

    Disjoint blocks mean no delta deletes an edge an earlier one
    removed or inserted, so the stream applies cleanly in order to
    the graph the edge arrays came from.
    """
    rng = np.random.default_rng([seed, 3])
    blocks = rng.choice(n // span, count, replace=False)
    return [
        localized_delta(edges, int(b) * span, span, ops, rng) for b in blocks
    ]


def swap_delta_pair(graph, ops: int, seed: int):
    """A delta and its exact inverse on ``graph``.

    The delta deletes ``ops // 2`` seeded existing edges and inserts as
    many absent ones; the inverse deletes the inserted edges and puts
    the deleted ones back with their weights.  Applying the two in turn
    returns the graph to its starting state, so a probe can apply them
    any number of times.
    """
    from repro.graph import GraphDelta

    rng = np.random.default_rng([seed, 4])
    rows, cols, weights = graph.edge_arrays()
    n = graph.number_of_nodes
    k = min(ops // 2, rows.size // 2)
    removed = np.sort(rng.choice(rows.size, k, replace=False))
    present = set(zip(rows.tolist(), cols.tolist()))
    new = []
    while len(new) < k:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if not graph.directed:
            u, v = min(u, v), max(u, v)
        if u != v and (u, v) not in present:
            present.add((u, v))
            new.append((u, v))
    ins_r, ins_c = (np.array(side, dtype=np.int64) for side in zip(*new))
    forward = GraphDelta.delete(rows[removed], cols[removed]) | GraphDelta.insert(ins_r, ins_c)
    inverse = GraphDelta.delete(ins_r, ins_c) | GraphDelta.insert(
        rows[removed], cols[removed], weights[removed]
    )
    return forward, inverse


@dataclass(frozen=True)
class Event:
    """One scheduled operation of the open-loop stream."""

    due: float  # seconds after the stream starts
    kind: str  # "hot", "fresh", "wide" or "delta"
    payload: object  # a RankRequest, or an index into the delta list


#: Zipf exponent of hot-set popularity.  Each delta leaves the cached
#: answers pending correction and evicts those still pending from the
#: delta before, so the share of reads served as hits falls with the
#: skew.  At 0.6 it stays near a third: the median read is then a solve,
#: well clear of the hit mode.  Near a half (s ≈ 1.1) the median jumps
#: between the hit mode (~1 ms) and the solve modes (20–50 ms) from
#: one seed to the next.
ZIPF_S = 0.6
#: update_stream mix: share of events per kind.
STREAM_MIX = {"hot": 0.67, "fresh": 0.20, "wide": 0.05, "delta": 0.08}


def hot_set(seed: int, n: int = SERVING_NODES, size: int = 50):
    """The hot requests in Zipf-rank order: the global ranking first,
    then sparse-seed personalised requests."""
    from repro.serving import RankRequest

    top = RankRequest(method="d2pr", p=1.0, tol=SERVING_TOL)
    return [top] + personalized_requests(seed + 7919, size - 1, n)


def _zipf_draws(size: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` hot-set indices in Zipf proportions, in a seeded order.

    Each index appears as often as its Zipf share of ``count`` says
    (largest remainders round up), so every seed requests each hot entry
    equally often; only the order differs.
    """
    share = 1.0 / np.arange(1, size + 1) ** ZIPF_S
    share *= count / share.sum()
    counts = np.floor(share).astype(int)
    extra = np.argsort(counts - share)[: count - counts.sum()]
    counts[extra] += 1
    draws = np.repeat(np.arange(size), counts)
    rng.shuffle(draws)
    return draws


def open_loop_stream(seed: int, rate: float, horizon: float,
                     hot: list, n: int = SERVING_NODES):
    """Events at a fixed arrival rate for ``horizon`` seconds.

    The kinds come in the exact :data:`STREAM_MIX` proportions, in a
    seeded order.  Hot reads are Zipf-skewed over ``hot`` (see
    :func:`_zipf_draws`); fresh reads
    are new sparse-seed requests; wide reads carry 36 seeds spread over
    the graph (over the planner's push seed limit, so they pool in the
    coalescer).  Every event gets its own request object, so a request
    identifies its event.  Delta payloads count up from 0.
    """
    from repro.serving import RankRequest

    rng = np.random.default_rng([seed, 5])
    total = int(rate * horizon)
    kinds = []
    for kind, share in STREAM_MIX.items():
        if kind != "hot":
            kinds += [kind] * round(share * total)
    kinds += ["hot"] * (total - len(kinds))
    rng.shuffle(kinds)
    hot_order = iter(_zipf_draws(len(hot), kinds.count("hot"), rng))
    events, deltas = [], 0
    for i, kind in enumerate(kinds):
        if kind == "delta":
            payload: object = deltas
            deltas += 1
        elif kind == "hot":
            payload = replace(hot[next(hot_order)])
        elif kind == "fresh":
            payload = sparse_seed_request(rng, n)
        else:
            seeds = rng.choice(n, 36, replace=False)
            payload = RankRequest(
                method="d2pr", p=1.0, seeds=[int(s) for s in seeds],
                tol=SERVING_TOL,
            )
        events.append(Event(i / rate, kind, payload))
    return events, deltas
