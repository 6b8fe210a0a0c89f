"""Batch front end: JSON in, JSON report out.

Exit codes: 0 when a verdict was computed (yes or no), 2 on input errors,
3 when --strict is given and some verdict stayed indeterminate at depth.
All numbers are serialized with 17 significant digits and sorted keys, so
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import classify as cls
from . import models, oracle, shift, tree
from .measure import AtomicMeasure, NotProbabilityError

__all__ = ["main", "run", "dumps_canonical"]


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        if math.isnan(x):
            return '"nan"'
        if x == int(x) and abs(x) < 1e15:
            return repr(x)
        return format(x, ".17g")
    return repr(x)


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, complex):
        return dumps_canonical([obj.real, obj.imag])
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {dumps_canonical(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj, key=str) if isinstance(obj, (set, frozenset)) else obj
        return "[" + ", ".join(dumps_canonical(v) for v in seq) + "]"
    return json.dumps(str(obj))


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: {e}")
    if not isinstance(d, dict):
        raise InputError(f"{path}: the top level must be a JSON object")
    return d


@contextlib.contextmanager
def _reading(path: str):
    """Yield the JSON object in ``path``; a key, type or value error raised
    while reading it is an :class:`InputError` that names the file."""
    d = _load_json(path)
    try:
        yield d
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: {e}") from None


def _parse_kappa(x):
    if x in ("inf", "infinity", None):
        return math.inf if x is not None else 0
    return int(x)


def _optional(x, parse):
    return None if x is None else parse(x)


def _floats(xs) -> list:
    return [float(x) for x in xs]


def _explicit_tree(d: dict) -> tree.DirectedTree:
    return tree.validate(d["vertices"], [tuple(e) for e in d["edges"]])


def _load_tree(path: str, depth: int):
    with _reading(path) as d:
        kind = d.get("kind")
        if kind == "explicit":
            m = tree.explicit_truncation(
                _explicit_tree(d), d.get("incomplete", ()), bool(d.get("rootless", False))
            )
            return m, None
        if kind != "family":
            raise InputError(f"{path}: kind must be 'explicit' or 'family'")
        name = str(d.get("family", "")).lower()
        depth = int(d.get("depth", depth))
        if name in ("z_plus", "z", "z_minus", "binary"):
            fam = tree.TreeFamily(kind=name)
        elif name in ("t_eta_kappa",):
            fam = tree.broom(int(d["eta"]), _parse_kappa(d.get("kappa", 0)))
        else:
            raise InputError(f"{path}: unknown family {d.get('family')!r}")
    return fam.materialize(depth), fam


def _load_weights(path: str, m, fam):
    """The weights in ``path``, read against the prefix ``m``: a ``base`` id
    must be a non-root vertex of it."""
    with _reading(path) as d:
        w = shift.weights_from_json(d, fam)
        outside = next((v for v in w.base if not m.tree.has_parent(v)), None)
        if outside is not None:
            where = f"the prefix of depth {m.depth}" if fam is not None else "the tree"
            raise ValueError(f"base id {outside!r} is not a non-root vertex of {where}")
    return w


def _load_measures(d) -> list:
    return [AtomicMeasure.from_json(item) for item in d["measures"]]


def _emit(payload: dict) -> None:
    sys.stdout.write(dumps_canonical(payload) + "\n")


def cmd_validate(args) -> int:
    with _reading(args.tree) as d:
        if d.get("kind") != "explicit":
            raise InputError("validate expects an explicit tree")
        try:
            t = _explicit_tree(d)
        except tree.ValidationError as e:
            _emit({"valid": False, "error": {"kind": type(e).__name__, "message": str(e)}})
            return 2
    _emit({"valid": True, "root": t.root, "vertices": len(t.vertices)})
    return 0


def cmd_index(args) -> int:
    m, fam = _load_tree(args.tree, args.depth)
    try:
        idx = tree.tree_index(fam if fam is not None else m)
    except tree.NotFredholmError as e:
        _emit({"tree_index": None, "not_fredholm": str(e)})
        return 0
    except tree.IndeterminateError as e:
        _emit({"tree_index": None, "indeterminate": str(e)})
        return 3 if args.strict else 0
    _emit({"tree_index": idx})
    return 0


def cmd_norm(args) -> int:
    m, fam = _load_tree(args.tree, args.depth)
    w = _load_weights(args.weights, m, fam)
    r = shift.norm(w, m)
    _emit({"norm": r.value, "exact": r.exact})
    return 0


def cmd_powers(args) -> int:
    m, fam = _load_tree(args.tree, args.depth)
    w = _load_weights(args.weights, m, fam)
    try:
        vals = [
            shift.power_norm_squared(w, m, args.vertex, n)
            for n in range(args.max_n + 1)
        ]
    except tree.UnknownVertexError as e:
        raise InputError(f"unknown vertex {e}")
    except shift.IncompleteTruncationError as e:
        _emit({"indeterminate": str(e)})
        return 3 if args.strict else 0
    _emit({"vertex": args.vertex, "power_norms_squared": vals})
    return 0


def cmd_classify(args) -> int:
    m, fam = _load_tree(args.tree, args.depth)
    w = _load_weights(args.weights, m, fam)
    entries = {
        "isometry": cls.is_isometry(w, m, args.tol),
        "quasinormal": cls.is_quasinormal(w, m, args.tol),
        "normal": cls.is_normal(w, m, args.tol),
        "cohyponormal": cls.is_cohyponormal(w, m, args.tol),
        "hyponormal": cls.is_hyponormal(w, m, args.tol),
    }
    if args.p is not None:
        entries[f"p_hyponormal[{_fmt(float(args.p))}]"] = cls.is_p_hyponormal(
            w, m, args.p, args.tol
        )
    if args.power and args.power > 1:
        tr = oracle.truncate(m, args.depth, weights=w)
        v = oracle.power_selfcommutator_check(tr, k=args.power)
        key = "square_hyponormal" if args.power == 2 else f"power{args.power}_hyponormal"
        entries[key] = cls.Verdict(
            "yes" if v.ok else "no",
            exact=not v.ok,
            witness=None if v.ok else {"vertex": v.witness, "min_eig": v.min_eig},
            depth=args.depth,
        )
    if args.measures:
        with _reading(args.measures) as spec:
            ms, flavor = _load_measures(spec), spec.get("flavor", "subnormal")
        try:
            if flavor == "subnormal":
                entries["subnormal_model"] = cls.subnormal_on_T(
                    w, m, ms, K=args.big_k, tol=args.tol
                )
            else:
                entries["chex_model"] = cls.chex_on_T(w, m, ms, tol=args.tol)
        except (cls.MeasureMismatchError, NotProbabilityError) as e:
            raise InputError(str(e))
    report = cls.ClassificationReport(entries)
    _emit({"predicates": report.to_json(), "summary": report.summary()})
    if args.strict and any(v.value == "indeterminate" for v in entries.values()):
        return 3
    return 0


def cmd_construct(args) -> int:
    """Build a model from a spec: eta, kappa, measures, and optionally the
    first-level weights (under ``args.first``) and theta."""
    with _reading(args.spec) as spec:
        eta, kappa, ms = int(spec["eta"]), _parse_kappa(spec.get("kappa", 0)), _load_measures(spec)
        first, theta = _optional(spec.get(args.first), _floats), _optional(spec.get("theta"), float)
    try:
        res = args.build(eta, kappa, ms, first, theta=theta)
    except ValueError as e:  # the model's conditions refuse the spec
        raise InputError(f"{type(e).__name__}: {e}")
    _emit(res.to_json())
    return 0


def cmd_backward_extension(args) -> int:
    with _reading(args.measure) as d:
        mu = AtomicMeasure.from_json(d)
    k = math.inf if args.k == "inf" else int(args.k)
    try:
        ok = models.backward_extension(mu, k, args.flavor)
    except ValueError as e:
        raise InputError(str(e))
    _emit({"k": args.k, "flavor": args.flavor, "extendible": ok})
    return 0


def cmd_oracle_compare(args) -> int:
    m, fam = _load_tree(args.tree, args.depth)
    w = _load_weights(args.weights, m, fam)
    tr = oracle.truncate(m, args.depth, weights=w)
    closed = shift.norm(w, m)
    brute = oracle.operator_norm(tr)
    denom = max(closed.value, brute, 1e-300)
    rel = abs(closed.value - brute) / denom
    hyp = cls.is_hyponormal(w, m, args.tol)
    sc = oracle.selfcommutator_check(tr, p=1.0)
    _emit(
        {
            "shift_norm": closed.value,
            "shift_norm_exact": closed.exact,
            "oracle_norm": brute,
            "rel_diff": rel,
            "norms_agree": rel <= 1e-6 or not closed.exact,
            "hyponormal_closed_form": hyp.value,
            "hyponormal_oracle": "yes" if sc.ok else "no",
            "classifiers_agree": (hyp.value == "yes") == sc.ok,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treeshift", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, weights=True):
        p.add_argument("tree", help="tree spec JSON")
        if weights:
            p.add_argument("weights", help="weight system JSON")
        p.add_argument("--depth", type=int, default=12)
        # looser than the library's 1e-10: a weight typed to 10 significant
        # digits is off by at most 5e-10 relative, so its square by 1e-9
        p.add_argument("--tol", type=float, default=1e-9, help="relative slack of the predicates' comparisons")
        p.add_argument("--strict", action="store_true")

    p = sub.add_parser("validate", help="check an explicit tree")
    p.add_argument("tree")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("index", help="Fredholm index of the bare tree")
    common(p, weights=False)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("norm", help="operator norm with exactness flag")
    common(p)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("powers", help="iterated power norms at a vertex")
    common(p)
    p.add_argument("--vertex", required=True)
    p.add_argument("--max-n", type=int, default=10)
    p.set_defaults(fn=cmd_powers)

    p = sub.add_parser("classify", help="run the class predicates")
    common(p)
    p.add_argument("--p", type=float, default=None, help="also test p-hyponormality")
    p.add_argument("--power", type=int, default=None, help="also test a matrix power")
    p.add_argument("--measures", default=None, help="measures JSON for the model tests")
    p.add_argument("--K", dest="big_k", type=int, default=25)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("construct-subnormal", help="build a moment-model shift")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_construct, build=models.construct_subnormal, first="lambda1")

    p = sub.add_parser("construct-chex", help="build an alternating-model shift")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_construct, build=models.construct_chex, first="t")

    p = sub.add_parser("backward-extension", help="k-step backward extendibility")
    p.add_argument("measure")
    p.add_argument("--k", default="1")
    p.add_argument("--flavor", choices=("subnormal", "chex"), default="subnormal")
    p.set_defaults(fn=cmd_backward_extension)

    p = sub.add_parser("oracle-compare", help="closed forms vs the truncation oracle")
    common(p)
    p.set_defaults(fn=cmd_oracle_compare)
    return ap


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        _emit({"error": {"kind": "InputError", "message": str(e)}})
        return 2
    except (
        ValueError,  # a computation refused its input
        shift.UnknownWeightError,
        tree.UnknownVertexError,
        OverflowError,  # a tail rule past the float range
        ZeroDivisionError,
    ) as e:
        _emit({"error": {"kind": type(e).__name__, "message": str(e)}})
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
