"""Shared builders for the example operators used across the tests, and the
per-vertex reference implementations of the closed forms."""

from __future__ import annotations

import math
import random

import numpy as np

import treeshift as ts
from treeshift import classify as cls
from treeshift import oracle, shift, tree
from treeshift.tree import IndeterminateError, Materialized, vertex_key
from treeshift.measure import AtomicMeasure
from treeshift.shift import (
    BranchRule,
    BroomWeights,
    ChainWeights,
    ConstantTail,
    WeightSystem,
)


def broom_weights(eta, kappa, branch_specs, trunk_head=()):
    """branch_specs: per branch, (head tuple, constant tail value)."""
    branches = tuple(
        BranchRule(head=tuple(head), tail=ConstantTail(tail), start=1)
        for head, tail in branch_specs
    )
    trunk = BranchRule(head=tuple(trunk_head), tail=None, start=0) if trunk_head else None
    return WeightSystem(rules=BroomWeights(eta=eta, kappa=kappa, branches=branches, trunk=trunk))


def chain_weights(kind, pos=None, neg=None):
    def mk(spec, start):
        if spec is None:
            return None
        head, tail = spec
        return BranchRule(head=tuple(head), tail=tail, start=start)

    return WeightSystem(rules=ChainWeights(kind=kind, pos=mk(pos, 1), neg=mk(neg, 0)))


def ones_chain(kind):
    pos = ((), ConstantTail(1.0))
    neg = ((), ConstantTail(1.0))
    if kind == "z_plus":
        return chain_weights(kind, pos=pos)
    if kind == "z_minus":
        return chain_weights(kind, neg=neg)
    return chain_weights(kind, pos=pos, neg=neg)


# -- named example systems ---------------------------------------------------


def hyponormal_two_branch(q=4.0, r=8.0, s=1.0, t=1.9):
    """Broom with one trunk step: hyponormal, square not hyponormal."""
    w = broom_weights(2, 1, [((q,), r), ((s,), t)], trunk_head=(q,))
    return ts.broom(2, 1), w


def paranormal_not_hyponormal():
    """Rooted double branch: paranormal but not hyponormal."""
    w = broom_weights(2, 0, [((1.0,), 2.0), ((1.0, 0.5), 1.0)])
    return ts.broom(2, 0), w


def two_threads(a=0.6, b=0.8):
    """Unit power norms at the branch vertex, non-moment sequences below."""
    w = broom_weights(2, 0, [((a, b / a, a / b), 1.0), ((b, a / b, b / a), 1.0)])
    return ts.broom(2, 0), w


def p_separating(lam0, a, b):
    """One trunk step, 1/sqrt2 first-level weights, constant 1/a and 1/b tails."""
    w = broom_weights(
        2, 1,
        [((1 / math.sqrt(2),), 1 / a), ((1 / math.sqrt(2),), 1 / b)],
        trunk_head=(lam0,),
    )
    return ts.broom(2, 1), w


def stem_binary(depth, alpha, beta):
    """Rooted stem feeding a full binary tree; alpha inside, beta outside.

    Hyponormal; the square fails at (2,2) once alpha > 2*beta.
    """
    verts = ["0", "(1,1)"]
    edges = [("0", "(1,1)")]
    weights = {"(1,1)": alpha}
    prev = ["(1,1)"]
    for i in range(2, depth + 1):
        cur = []
        for j in range(1, 2 ** (i - 1) + 1):
            v = f"({i},{j})"
            verts.append(v)
            parent = prev[(j - 1) // 2]
            edges.append((parent, v))
            weights[v] = alpha if j <= 2 ** (i - 2) else beta
            cur.append(v)
        prev = cur
    t = tree.validate(verts, edges)
    m = tree.explicit_truncation(t, incomplete=prev)
    return m, WeightSystem(base=weights)


def side_branch_chain(n_chain=20, decay=0.02, side_weight=0.0):
    """Rootless-truncated chain with (by default dead) side leaves."""
    verts = [f"c{i}" for i in range(n_chain)]
    edges = [(f"c{i}", f"c{i+1}") for i in range(n_chain - 1)]
    side = []
    for i in range(2, n_chain - 1, 2):
        verts.append(f"s{i}")
        edges.append((f"c{i}", f"s{i}"))
        side.append(f"s{i}")
    t = tree.validate(verts, edges)
    m = tree.explicit_truncation(t, incomplete=[f"c{n_chain-1}"], rootless=True)
    base = {f"c{i+1}": 1.0 / (1.0 + decay * i) for i in range(n_chain - 1)}
    base.update({s: side_weight for s in side})
    return m, WeightSystem(base=base), side


def random_tree(rng: random.Random, n: int) -> tree.DirectedTree:
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n)]
    return tree.validate(verts, edges)


def random_weights(rng: random.Random, t, lo=0.0, hi=3.0, zeros=0.0):
    base = {}
    for v in t.vertices:
        if t.parent.get(v) is None:
            continue
        base[v] = 0.0 if rng.random() < zeros else rng.uniform(lo, hi)
    return WeightSystem(base=base)


TWO_ATOM = AtomicMeasure.from_pairs([(0.5, 0.5), (1.0, 0.5)])


# -- canonical order, built the direct way ------------------------------------


def ref_build(vertices, parent) -> tree.DirectedTree:
    """The tree with each children tuple and the vertex set sorted by
    ``vertex_key`` on their own."""
    children = {v: [] for v in vertices}
    for v, u in parent.items():
        children[u].append(v)
    roots = [v for v in vertices if v not in parent]
    return tree.DirectedTree(
        vertices=tuple(sorted(vertices, key=vertex_key)),
        parent=dict(parent),
        children={u: tuple(sorted(cs, key=vertex_key)) for u, cs in children.items()},
        root=roots[0] if len(roots) == 1 else None,
    )


def ref_levels(t) -> dict:
    """Distance from the root, by breadth-first search."""
    out, frontier, k = {t.root: 0}, [t.root], 0
    while frontier:
        k += 1
        frontier = [v for u in frontier for v in t.children[u]]
        out.update((v, k) for v in frontier)
    return out


def ref_arrays(t, complete) -> dict:
    """The integer view's fields, read off the children tuples one by one."""
    index = {v: i for i, v in enumerate(t.vertices)}
    kids = [[index[c] for c in t.children[v]] for v in t.vertices]
    levels = ref_levels(t)
    return {
        "parent": [index[t.parent[v]] if v in t.parent else -1 for v in t.vertices],
        "child_ptr": [0] + list(np.cumsum([len(k) for k in kids])),
        "child_idx": [c for k in kids for c in k],
        "edge_parent": [u for u, k in enumerate(kids) for _ in k],
        "complete": [v in complete for v in t.vertices],
        "level": [levels[v] for v in t.vertices],
        "checkable": [v in complete and all(c in complete for c in t.children[v]) for v in t.vertices],
    }


# -- the tail rules, stated per tail type ----------------------------------------
# What each tail kind guarantees beyond a prefix, written out per type and per
# direction, so that the reference does not lean on the library's tail facts.
# ``forward`` is True where a rule's index runs along the shift (branches,
# ``pos``), False where it runs against it (the trunk, ``neg``) and None where
# the rule's vertices branch (the binary family).

TAIL_WALK = 10_000


def ref_rules(w):
    """[(rule, forward)] of the family rules; None without rules."""
    r = w.rules
    if r is None:
        return None
    if isinstance(r, shift.BinaryWeights):
        return [(r.spine, None), (BranchRule((), ConstantTail(r.off_spine), 0), None)]
    if isinstance(r, shift.ChainWeights):
        return [(x, fwd) for x, fwd in ((r.pos, True), (r.neg, False)) if x is not None]
    trunk = r.trunk
    if trunk is not None and trunk.tail is not None and r.kappa != math.inf:  # kappa positions
        trunk = BranchRule(tuple(trunk.value(k) for k in range(trunk.start, int(r.kappa))), None, trunk.start)
    return [(b, True) for b in r.branches] + ([(trunk, False)] if trunk is not None else [])


def ref_moduli(tail, start):
    """((inf, exact), (sup, exact)) of |value(i)| over i >= start."""
    kind = type(tail)
    if kind is shift.ConstantTail:
        c = abs(tail.value_)
        return (c, True), (c, True)
    if kind is shift.GeometricTail:
        a, r = abs(tail.value(start)), abs(tail.ratio)
        return (a if r >= 1 else 0.0, True), (a if r <= 1 or tail.scale == 0 else math.inf, True)
    if kind is shift.FactorialTail:
        return (abs(tail.value(start)), True), (math.inf if tail.scale else 0.0, True)
    if kind is shift.AffineTail:
        return (1.0, True), (math.inf, True)
    if kind is shift.MomentRatioTail:
        return (tail.value(start), True), (math.sqrt(tail.measure.support_max()), True)
    if kind is shift.CaRatioTail:
        return (1.0, True), (tail.value(start), True)
    if kind is shift.TrunkMomentRatioTail:
        return (0.0, False), (tail.value(start), True)
    assert kind is shift.SequenceTail
    return (tail.declared_inf, tail.exact), (tail.declared_sup, tail.exact)


def ref_hypo_status(tail, forward):
    """Do the tail's moduli never decrease along the shift: ok, fails or unknown."""
    kind = type(tail)
    if kind is shift.ConstantTail:
        return "ok"
    if kind is shift.GeometricTail:
        r = abs(tail.ratio)
        if r == 0 or tail.scale == 0:
            return "unknown"  # zeros after the scale: not declared exactly
        return "ok" if r == 1 or (r > 1) == forward else "fails"
    if kind is shift.FactorialTail:
        return "ok" if forward or tail.scale == 0 else "fails"
    if kind is shift.AffineTail:
        return "fails"  # climbs within a run, drops back to 1 at each break
    if kind is shift.MomentRatioTail:
        return "ok" if forward else "unknown"  # increasing; how fast is not declared
    if kind is shift.CaRatioTail:
        return "ok" if not forward or not tail.tau.atoms else "fails"
    if kind is shift.TrunkMomentRatioTail:
        return "unknown" if forward else "ok"
    if tail.declared_ratio is None:
        return "unknown"
    lo, hi = tail.declared_ratio
    if (lo >= 1) if forward else (hi <= 1):
        return "ok"
    return "fails" if tail.exact else "unknown"


def ref_first_drop(w, rule, forward, j0, last):
    """The first j >= j0 where |lambda_j| falls below |lambda_{j-1}| (rises
    above it, against the shift), up to TAIL_WALK past the tail start; the
    weight at j0 - 1 is the prefix's own, that of vertex ``last``."""
    prev = abs(w.weight(last))
    for j in range(j0, rule.start + len(rule.head) + 1 + TAIL_WALK):
        cur = abs(rule.value(j))
        if (cur < prev) if forward else (cur > prev):
            return j
        prev = cur
    return None


def ref_past_prefix(w, m):
    """[(rule, forward, j0, end, last)] for each family rule whose indices
    j0 <= j < end lie past the prefix ``m`` (``forward`` as in ``ref_rules``);
    ``last`` is the id of index j0 - 1, the chain's last vertex inside the
    prefix.  The binary off-spine vertices are counted in storage order: the
    prefix holds all but the root and the d spine vertices."""
    r, d = w.rules, m.depth
    if r is None:
        return []
    if isinstance(r, shift.BinaryWeights):
        off = BranchRule((), ConstantTail(r.off_spine), 0)
        return [(r.spine, None, d + 1, math.inf, f"({d},1)"),
                (off, None, len(m.tree.vertices) - 1 - d, math.inf, None)]
    if isinstance(r, shift.ChainWeights):
        return [(x, fwd, j0, math.inf, last) for x, fwd, j0, last in
                ((r.pos, True, d + 1, str(d)), (r.neg, False, d, str(1 - d))) if x is not None]
    out = [(b, True, d + 1, math.inf, f"({i},{d})") for i, b in enumerate(r.branches, start=1)]
    return out + ([(r.trunk, False, d, r.kappa, str(1 - d))] if r.trunk is not None and r.kappa > d else [])


def ref_heads_covered(rules, m):
    return m.depth >= max((r.start + len(r.head) for r, _ in rules), default=0) + 1


def ref_constant(rule):
    (lo, ok_lo), (hi, ok_hi) = ref_moduli(rule.tail, rule.start + len(rule.head))
    return hi if ok_lo and ok_hi and lo == hi else None


def ref_finite(m):
    return m.complete == frozenset(m.tree.vertices) and not m.boundary_root


def ref_sup_abs(rule):
    vals = [abs(v) for v in rule.head]
    if rule.tail is None:
        return max(vals, default=0.0), True
    s, ok = ref_moduli(rule.tail, rule.start + len(rule.head))[1]
    return max(vals + [s]), ok


# -- per-vertex reference implementations --------------------------------------
# The closed forms as one Python loop per vertex, in canonical order, straight
# from the definitions.  The library runs them on integer arrays; the property
# tests hold the two to identical results.

def ref_local_data(w, m):
    """(mod, mod2, norms2) by position, one weight at a time through
    ``w.weight``: the children of each complete vertex, in canonical order."""
    t = m.tree
    index = {v: i for i, v in enumerate(t.vertices)}
    mod, mod2, norms2 = (np.full(len(index), x) for x in (math.nan, math.nan, 0.0))
    for u in sorted(m.complete, key=vertex_key):
        total = 0.0
        for v in t.children[u]:
            x = abs(w.weight(v))
            mod[index[v]], mod2[index[v]] = x, x ** 2
            total += x ** 2
        norms2[index[u]] = total
    bad = [v for v in t.vertices if not math.isfinite(mod[index[v]]) and v in t.parent and t.parent[v] in m.complete]
    if bad:
        raise shift.NonFiniteWeightError(f"weight of vertex {bad[0]!r} is not finite: {w.weight(bad[0])!r}")
    return mod, mod2, norms2


def ref_norms_squared(w, m):
    return {u: sum(abs(w.weight(v)) ** 2 for v in m.tree.children[u]) for u in m.complete}


def ref_norm(w, m):
    best = 0.0
    for u in m.complete:
        best = max(best, sum(abs(w.weight(v)) ** 2 for v in m.tree.children[u]))
    exact = not m.boundary_root and m.complete == frozenset(m.tree.vertices)
    if w.rules is not None:
        exact = True
        if isinstance(w.rules, shift.BinaryWeights):
            s, ok = ref_sup_abs(w.rules.spine)
            off = w.rules.off_spine
            best = max(best, s ** 2 + off ** 2, 2 * off ** 2)
            exact = ok
        else:
            for rule, _ in ref_rules(w):
                s, ok = ref_sup_abs(rule)
                best = max(best, s ** 2)
                exact = exact and ok
    return shift.NormResult(value=math.sqrt(best), exact=exact)


def ref_fredholm_data(w, m):
    t = m.tree
    norms2 = ref_norms_squared(w, m)
    have_rules = w.rules is not None
    exact = ((not m.boundary_root) and m.complete == frozenset(t.vertices)) or have_rules
    if have_rules and isinstance(w.rules, shift.BinaryWeights):
        return shift.FredholmData(a=0.0, b=math.inf, c=math.inf, is_fredholm=False, index=None,
                                  exact=True, reason="every vertex branches")
    tail_infs = []
    tails_cover = True
    if have_rules:
        # the rules give the weights past the prefix only
        for rule, _, j0, _, _ in ref_past_prefix(w, m):
            head = rule.head[max(j0 - rule.start, 0):]
            vals = [abs(v) for v in head if v != 0]
            ok = True
            if rule.tail is not None:
                (lo, ok), (hi, hi_ok) = ref_moduli(rule.tail, max(j0, rule.start + len(rule.head)))
                if (hi, hi_ok) == (0.0, True):
                    return shift.FredholmData(a=math.inf, b=math.inf, c=0.0, is_fredholm=False,
                                              index=None, exact=True,
                                              reason="a whole tail of weights vanishes")
                vals.append(lo)
            if vals:
                tail_infs.append(min(vals))
            # a zero weight past the prefix leaves a and b open
            tails_cover = tails_cover and ok and 0 not in head
        exact = exact and tails_cover
    a = sum(1 for s in norms2.values() if s == 0.0)
    b = 0
    for u, s in norms2.items():
        deg = len(t.children[u])
        if deg:
            b += (deg - 1) if s > 0.0 else deg
    c_candidates = []
    for v in t.vertices:
        p = t.parent.get(v)
        if p is not None and p in m.complete and len(t.children[p]) == 1:
            lam = abs(w.weight(v))
            if lam != 0.0:
                c_candidates.append(lam)
    c_candidates.extend(x for x in tail_infs if x > 0.0)
    if have_rules and any(x == 0.0 for x in tail_infs):
        c = 0.0
    else:
        c = min(c_candidates) if c_candidates else math.inf
    if not exact:
        raise IndeterminateError("structural counters are not finitely determined at this depth")
    is_f = c > 0.0 and b < math.inf
    rooted = m.has_true_root() if m.family is None else m.family.rooted()
    index = (a - b - 1 if rooted else a - b) if is_f else None
    return shift.FredholmData(a=a, b=b, c=c, is_fredholm=is_f, index=index, exact=True)


def ref_tu_quantities(child_norms2, child_mods):
    d2 = np.asarray(child_norms2, dtype=float)
    lam = np.asarray(child_mods, dtype=float)
    lam2 = lam * lam
    denom = 1.0 + float(np.sum(lam2))
    loo = np.array([1.0 + float(np.sum(np.delete(lam2, i))) for i in range(len(lam2))])
    mat = -np.outer(np.sqrt(d2) * lam, np.sqrt(d2) * lam) / denom
    np.fill_diagonal(mat, d2 * loo / denom)
    evs = np.linalg.eigvalsh(mat)
    return (float(evs[-1]), float(np.sqrt(np.sum(mat * mat))), float(np.trace(mat)),
            float(np.max(d2)) if len(d2) else 0.0)


def ref_domain_inclusion_criteria(w, m, depth=None):
    if depth is None:
        depth = m.depth or 8
    envs = []
    binary = isinstance(w.rules, shift.BinaryWeights)
    if binary:
        spine, off = w.rules.spine, abs(w.rules.off_spine)
        mu = lambda i: abs(spine.value(i))
        white = 2.0 * off ** 2
        envs.append(([off, off], [white, white]))
        for i in range(0, depth + 1):
            envs.append(([mu(i + 1), off], [mu(i + 2) ** 2 + off ** 2, white]))
    else:
        norms2 = ref_norms_squared(w, m)
        lv = ref_levels(m.tree)
        for u in sorted(m.complete, key=lambda u: (lv[u], u)):
            kids = m.tree.children[u]
            if kids and all(v in m.complete for v in kids):
                envs.append(([abs(w.weight(v)) for v in kids], [norms2[v] for v in kids]))
    if not envs:
        raise shift.IncompleteTruncationError(m.tree.root, "no vertex has two complete levels")
    fwd_vals = [sum(l ** 2 / (1.0 + n2) for l, n2 in zip(mods, n2s)) for mods, n2s in envs]
    t_vals, hs_vals, tr_vals, diag_vals = zip(*(ref_tu_quantities(n2s, mods) for mods, n2s in envs))

    def mono(vals):
        run, last_new = 0.0, -1
        for i, v in enumerate(vals):
            if v > run:
                run, last_new = v, i
        return last_new >= len(vals) - 2 and len(vals) >= 3

    extras = {"hs_sup": max(hs_vals), "trace_sup": max(tr_vals), "diag_sup": max(diag_vals)}
    nr = ref_norm(w, m)
    if nr.exact and math.isfinite(nr.value):
        fwd_v = bwd_v = "holds"
        exact = True
    elif binary:
        tail = w.rules.spine.tail
        fwd_v, bwd_v = {
            shift.FactorialTail: ("holds", "fails"),
            shift.GeometricTail: ("holds", "holds"),
            shift.AffineTail: ("fails", "holds"),
        }.get(type(tail), ("at-depth", "at-depth"))
        exact = fwd_v != "at-depth"
    else:
        fwd_v = bwd_v = "at-depth"
        exact = False
    return shift.DomainInclusionReport(
        fwd=shift.DirectionReport(max(fwd_vals), fwd_v, exact, mono(fwd_vals)),
        bwd=shift.DirectionReport(max(t_vals), bwd_v, exact, mono(t_vals), extras),
        depth=depth,
    )


def _ref_checkable(m):
    for u in sorted(m.complete, key=vertex_key):
        kids = m.tree.children[u]
        if all(v in m.complete for v in kids):
            yield u, kids


def ref_is_quasinormal(w, m, tol=cls.REL_TOL):
    norms2 = ref_norms_squared(w, m)
    common = None
    for u, kids in _ref_checkable(m):
        for v in kids:
            if abs(w.weight(v)) == 0.0:
                continue
            if not cls._eq(norms2[u], norms2[v], tol):
                return cls.Verdict("no", True, witness={
                    "parent": u, "child": v, "norms_squared": [norms2[u], norms2[v]]})
            common = norms2[u]
    rules = ref_rules(w)
    exact = (
        rules is not None
        and all(r.tail is None or ref_constant(r) is not None for r, _ in rules)
        and ref_heads_covered(rules, m)
    )
    detail = {}
    nonzero = all(abs(w.weight(v)) > 0 for v in m.tree.vertices if m.tree.parent.get(v) is not None)
    if common is not None and nonzero:
        detail["scalar_multiple_of_isometry"] = math.sqrt(common)
    return cls.Verdict("yes", exact, depth=m.depth or None, detail=detail)


def ref_is_p_hyponormal(w, m, p=1.0, tol=cls.REL_TOL) -> cls.Verdict:
    """The per-vertex loop of is_hyponormal (p = 1) and is_p_hyponormal."""
    norms2 = ref_norms_squared(w, m)
    for u, kids in _ref_checkable(m):
        total = 0.0
        for v in kids:
            lam = abs(w.weight(v))
            if norms2[v] == 0.0:
                if lam != 0.0:
                    return cls.Verdict(
                        "no", True,
                        witness={"parent": u, "vertex": v, "reason": "weight into a kernel vector"},
                    )
                continue
            total += lam ** 2 / norms2[v] ** p
        if p != 1.0:
            if norms2[u] == 0.0:
                continue
            total *= norms2[u] ** (p - 1.0)
        if not cls._leq(total, 1.0, tol):
            return cls.Verdict("no", True, witness={"vertex": u, "lhs": total})

    rules = ref_rules(w)
    if rules is None:
        return cls.Verdict("yes", ref_finite(m), depth=m.depth or None)
    statuses = []
    for r, fwd, j0, _, last in ref_past_prefix(w, m):
        if r.tail is None or fwd is None:
            continue
        st = ref_hypo_status(r.tail, fwd)
        j = ref_first_drop(w, r, fwd, j0, last) if st == "fails" else None
        if j is not None:
            return cls.Verdict(
                "no", True,
                witness={"tail_index": j, "reason": "weights decrease along a tail"},
            )
        statuses.append(st)
    exact = (
        all(fwd is not None for _, fwd in rules)
        and all(st == "ok" for st in statuses)
        and ref_heads_covered(rules, m)
    )
    return cls.Verdict("yes", exact, depth=m.depth or None)


def ref_is_isometry(w: WeightSystem, m: Materialized, tol: float = cls.REL_TOL) -> cls.Verdict:
    """sum of squared child weights equals 1 at every vertex."""
    for u in sorted(m.complete, key=vertex_key):
        s = sum(abs(w.weight(v)) ** 2 for v in m.tree.children[u])
        if not cls._eq(s, 1.0, tol):
            return cls.Verdict("no", True, witness={"vertex": u, "norm_squared": s})
    rules = ref_rules(w)
    if rules is None:
        return cls.Verdict("yes", ref_finite(m), depth=m.depth or None)
    exact = (
        all(fwd is not None and (r.tail is None or ref_constant(r) == 1.0) for r, fwd in rules)
        and ref_heads_covered(rules, m)
    )
    return cls.Verdict("yes", exact, depth=m.depth or None)


def ref_chain_verdict(w: WeightSystem, m: Materialized, require_equal: bool, tol: float) -> cls.Verdict:
    """Shared detector for the rootless chain-with-dead-branches structure."""
    rules = ref_rules(w)
    if m.has_true_root() if m.family is None else m.family.rooted():
        nz = next((
            v for v in sorted(m.tree.vertices, key=vertex_key)
            if m.tree.parent.get(v) is not None and abs(w.weight(v)) != 0.0
        ), None)
        if nz is not None:
            return cls.Verdict("no", True, witness={"reason": "rooted and nonzero", "vertex": nz})
        # the prefix is zero: a nonzero head weight past it is the witness
        past = ref_past_prefix(w, m)
        for r, _, j0, end, _ in past:
            j = next((j for j in range(j0, min(r.start + len(r.head), end)) if abs(r.value(j)) != 0.0), None)
            if j is not None:
                return cls.Verdict("no", True, witness={"reason": "rooted and nonzero", "tail_index": j})
        nonzero = [(r, j0) for r, _, j0, _, _ in past
                   if r.tail is not None and ref_moduli(r.tail, max(j0, r.start + len(r.head)))[1][0] != 0.0]
        if not nonzero:
            return cls.Verdict("yes", True, detail={"structure": "zero operator"})
        # then the first nonzero tail weight past the prefix
        for r, j0 in nonzero:
            j = next((j for j in range(j0, r.start + len(r.head) + 1 + TAIL_WALK) if abs(r.value(j)) != 0.0),
                     None)
            if j is not None:
                return cls.Verdict("no", True, witness={"reason": "rooted and nonzero", "tail_index": j})
        return cls.Verdict("indeterminate", False, depth=m.depth or None)

    norms2 = ref_norms_squared(w, m)
    chain = []
    cur = m.tree.root
    terminal = False
    unresolved: set = set()
    while True:
        kids = m.tree.children[cur]
        if any(v not in m.complete for v in kids):
            unresolved.update(kids)  # the chain leaves the truncation here
            break
        plus = [v for v in kids if norms2[v] > 0.0]
        if len(plus) > 1:
            return cls.Verdict("no", True, witness={"vertex": cur, "reason": "two live children"})
        dead = [v for v in kids if norms2[v] == 0.0 and abs(w.weight(v)) != 0.0]
        if plus:
            v = plus[0]
            lam = abs(w.weight(v))
            if dead:
                return cls.Verdict("no", True, witness={"vertex": dead[0], "reason": "nonzero weight off the chain"})
            bad = (
                not cls._eq(norms2[v], lam * lam, tol)
                if require_equal
                else not cls._leq(norms2[v], lam * lam, tol)
            )
            if bad:
                # prefer the root cause: a nonzero weight feeding a dead branch below v
                for x in m.tree.children[v]:
                    if x in m.complete and norms2.get(x, 1.0) == 0.0 and abs(w.weight(x)) != 0.0:
                        return cls.Verdict(
                            "no", True,
                            witness={"vertex": x, "reason": "nonzero weight off the chain"},
                        )
                return cls.Verdict(
                    "no", True,
                    witness={"vertex": v, "child_norm_squared": norms2[v], "weight_squared": lam * lam},
                )
            chain.append(v)
            cur = v
            continue
        # no live child: a terminal broom may absorb one last nonzero step
        if require_equal and any(abs(w.weight(v)) != 0.0 for v in kids):
            v = next(v for v in kids if abs(w.weight(v)) != 0.0)
            return cls.Verdict("no", True, witness={"vertex": v, "reason": "terminal weights break normality"})
        if not require_equal and chain:
            last = chain[-1]
            s = norms2.get(last, 0.0)
            if not cls._leq(s, abs(w.weight(last)) ** 2, tol):
                return cls.Verdict(
                    "no", True,
                    witness={"vertex": last, "children_norm_squared": s},
                )
        unresolved.update(kids)  # terminal fan may carry nonzero weights
        terminal = True
        break

    # everything off the extracted chain must carry zero weight
    allowed = set(chain) | unresolved
    for v in sorted(m.tree.vertices, key=vertex_key):
        if m.tree.parent.get(v) is None or v in allowed:
            continue
        if abs(w.weight(v)) != 0.0:
            return cls.Verdict("no", True, witness={"vertex": v, "reason": "nonzero weight off the chain"})

    exact = (
        rules is not None
        and all(r.tail is None or ref_constant(r) is not None for r, _ in rules)
        and ref_heads_covered(rules, m)
    )
    return cls.Verdict(
        "yes", exact, depth=m.depth or None,
        detail={"chain": chain, "terminal": terminal},
    )


# -- the dense truncation oracle, kept as the reference of the sparse one ------


def ref_bfs(m: Materialized) -> list:
    """The vertices in BFS order, each vertex's children in canonical order."""
    t = m.tree
    order, queue = [], [t.root]
    while queue:
        u = queue.pop(0)
        order.append(u)
        queue.extend(t.children[u])
    return order


def ref_matrix(tr) -> np.ndarray:
    """The dense n x n matrix of a truncation: A[i, j] = weight(v_i) if v_j is
    parent(v_i)."""
    n = len(tr.order)
    a = np.zeros((n, n), dtype=complex)
    for i, j in enumerate(tr.parent.tolist()):
        if j >= 0:
            a[i, j] = tr.weight[i]
    return a


def ref_dense_norms_squared(a) -> np.ndarray:
    return np.real(np.sum(a.conj() * a, axis=0))


def ref_partial_isometry(tr, a) -> np.ndarray:
    u = a.copy()
    n2 = ref_dense_norms_squared(a)
    t = tr.materialized.tree
    for v in tr.order:
        p = t.parent.get(v)
        if p is None:
            continue
        j, i = tr.pos(p), tr.pos(v)
        u[i, j] = u[i, j] / math.sqrt(n2[j]) if n2[j] > 0 else 0.0
    return u


def ref_operator_norm(tr) -> float:
    """Largest singular value of the dense matrix, by SVD."""
    return float(np.linalg.norm(ref_matrix(tr), 2))


def ref_commutator(tr, p=1.0) -> np.ndarray:
    """|S|^2p - |S*|^2p, dense."""
    a = ref_matrix(tr)
    dpow = ref_dense_norms_squared(a) ** p
    u = ref_partial_isometry(tr, a)
    return np.diag(dpow) - (u * dpow) @ u.conj().T


def ref_power_commutator(tr, k=2) -> np.ndarray:
    """B*B - BB* with B = A^k, dense."""
    b = np.linalg.matrix_power(ref_matrix(tr), k)
    return b.conj().T @ b - b @ b.conj().T


def ref_interior(tr) -> list:
    return sorted(tr.pos(v) for v in tr.interior)


def ref_power_safe(tr, k) -> list:
    """Positions whose k-step up and down neighbourhoods are fully present."""
    m = tr.materialized
    t = m.tree
    out = []
    for u in tr.order:
        x, safe = u, True
        for _ in range(k):
            p = t.parent.get(x)
            if p is None:
                if m.boundary_root:
                    safe = False
                break
            x = p
        if not safe:
            continue
        # everything reachable downward within 2k levels of the top ancestor
        # must have complete children up to the horizon
        level = {x}
        for _ in range(2 * k):
            nxt = set()
            for y in level:
                if y not in m.complete:
                    safe = False
                    break
                nxt.update(t.children[y])
            if not safe:
                break
            level = nxt
        if safe:
            out.append(tr.pos(u))
    return sorted(out)


def ref_restricted(mat, idx) -> tuple:
    """The Hermitian part of ``mat`` on the positions ``idx``, and its scale
    1 + max |entry|."""
    sub = mat[np.ix_(idx, idx)]
    sub = (sub + sub.conj().T) / 2.0
    return sub, 1.0 + float(np.max(np.abs(sub)))


def _ref_eig_check(tr, mat, idx, tol) -> tuple:
    """(verdict, scale) from one eigensolve of the dense restriction; the
    witness is the largest component of the least eigenvector."""
    sub, scale = ref_restricted(mat, idx)
    evs, vecs = np.linalg.eigh(sub)
    ok = evs[0] >= -tol * scale
    witness = None if ok else tr.order[idx[int(np.argmax(np.abs(vecs[:, 0])))]]
    return oracle.OracleVerdict(bool(ok), float(evs[0]), witness), scale


def ref_selfcommutator_check(tr, p=1.0, tol=1e-10) -> tuple:
    return _ref_eig_check(tr, ref_commutator(tr, p), ref_interior(tr), tol)


def ref_power_selfcommutator_check(tr, k=2, tol=1e-10) -> tuple:
    """Basis vectors first, then one eigensolve; the scale is None when a
    basis vector decides."""
    mat = ref_power_commutator(tr, k)
    idx = ref_power_safe(tr, k)
    for i in idx:
        gap = float(np.real(mat[i, i]))
        if gap < -tol * (1.0 + abs(gap)):
            return oracle.OracleVerdict(False, gap, tr.order[i]), None
    return _ref_eig_check(tr, mat, idx, tol)


def ref_kernel_dims(tr) -> tuple:
    """(dim ker S, dim ker S*) counted vertex by vertex on the dense matrix."""
    m = tr.materialized
    t = m.tree
    n2 = ref_dense_norms_squared(ref_matrix(tr))
    dim_ker = 0
    dim_coker = 1 if (t.root is not None and not m.boundary_root) else 0
    for u in tr.order:
        if u not in m.complete:
            continue
        kids = t.children[u]
        if not kids or n2[tr.pos(u)] == 0.0:
            dim_ker += 1
            dim_coker += len(kids)
        else:
            dim_coker += len(kids) - 1
    return dim_ker, dim_coker


def ref_witness_block_min(mat, idx, witness_pos) -> float:
    """Least eigenvalue of the block of the dense restriction that holds the
    witness: the positions joined to it through nonzero entries."""
    sub, _ = ref_restricted(mat, idx)
    start = idx.index(witness_pos)
    block, todo = {start}, [start]
    while todo:
        i = todo.pop()
        for j in np.flatnonzero(sub[i]).tolist():
            if j not in block:
                block.add(j)
                todo.append(j)
    rows = sorted(block)
    return float(np.linalg.eigvalsh(sub[np.ix_(rows, rows)])[0])
