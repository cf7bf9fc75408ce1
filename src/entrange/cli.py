"""Command-line interface: ingest, build/save/load, query, partition.

Exit codes: 0 ok, 2 usage (argparse), 3 data error, 4 index error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import exact1d, exactnd, partition, storage, sweep1d
from .approx import EstimatorIndex, additive, multiplicative
from .core import QueryRect, SHANNON, renyi_kind, stable_order
from .errors import DataFormatError, EntrangeError, IndexFileError, IndexKindMismatch


def parse_rect(text: str) -> QueryRect:
    big = sys.float_info.max
    lo, hi = [], []
    for part in text.split(","):
        piece = part.strip()
        if ":" not in piece:
            raise DataFormatError(f"bad rect component {piece!r} (want lo:hi)")
        a, b = piece.split(":", 1)
        lo.append(-big if a.strip() == "*" else float(a))
        hi.append(big if b.strip() == "*" else float(b))
    return QueryRect(tuple(lo), tuple(hi))


def _parse_alphas(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    return tuple(float(a) for a in text.split(","))


# ---------------------------------------------------------------------------
# build


def cmd_build(args: argparse.Namespace) -> int:
    pts = storage.ingest(args.input)
    alphas = _parse_alphas(args.alphas)
    if args.kind == "exact1d":
        index = exact1d.Exact1DIndex(pts, args.t, alphas)
    elif args.kind == "exactnd":
        index = exactnd.ExactNDIndex(pts, args.t, alphas)
    elif args.kind == "sweep-shannon":
        index = sweep1d.build_shannon(pts, args.epsilon)
    elif args.kind == "sweep-renyi":
        index = sweep1d.build_renyi(pts, args.epsilon, args.alpha)
    else:  # estimator
        index = EstimatorIndex(pts)
    storage.save_index(args.out, args.kind, index)
    print(f"built {args.kind} over {len(pts)} points -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# query


def _query_once(kind_name: str, index, args) -> dict:
    rect = parse_rect(args.rect)
    want_kind = SHANNON if args.kind == "shannon" else renyi_kind(args.alpha)
    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    if args.mode == "exact":
        if kind_name not in ("exact1d", "exactnd"):
            raise IndexKindMismatch(f"mode=exact needs an exact index, file holds {kind_name}")
        summary = index.query(rect, want_kind)
        bounds = {"exact": True, "tolerance": 1e-6}
    elif args.mode == "deterministic":
        if kind_name not in ("sweep-shannon", "sweep-renyi"):
            raise IndexKindMismatch(f"mode=deterministic needs a sweep index, file holds {kind_name}")
        if (kind_name == "sweep-shannon") != (args.kind == "shannon"):
            raise IndexKindMismatch(f"{kind_name} cannot answer {args.kind} queries")
        if kind_name == "sweep-renyi" and abs(index.alpha - args.alpha) > 1e-12:
            raise IndexKindMismatch(f"index built for alpha={index.alpha}, asked {args.alpha}")
        summary = index.query(rect)
        if kind_name == "sweep-shannon":
            bounds = {"lower": "H", "upper": f"(1+{index.eps})*H+{index.eps}"}
        else:
            slack = index.eps * (index.alpha + 1) / (index.alpha - 1)
            bounds = {"lower": "H_a", "upper": f"H_a+{slack:.6g}"}
    else:  # additive | multiplicative
        if kind_name != "estimator":
            raise IndexKindMismatch(f"mode={args.mode} needs an estimator index, file holds {kind_name}")
        if args.mode == "additive":
            estimate, accuracy, bounds = additive, args.delta, {"additive": args.delta}
        else:
            estimate, accuracy, bounds = multiplicative, args.epsilon, {"factor": 1 + args.epsilon}
        summary = estimate(index, rect, want_kind, accuracy, rng=rng)
        bounds["confidence"] = "whp"
    elapsed_us = (time.perf_counter() - t0) * 1e6
    return {
        "value": summary.value,
        "count": summary.count,
        "kind": args.kind if args.kind == "shannon" else f"renyi({args.alpha:g})",
        "mode": args.mode,
        "bounds_claimed": bounds,
        "seed": args.seed,
        "wall_time_us": round(elapsed_us, 1),
    }


def cmd_query(args: argparse.Namespace) -> int:
    kind_name, _, index = storage.load_index(args.index)
    out = _query_once(kind_name, index, args)
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"{out['kind']} entropy = {out['value']:.6f} bits "
              f"(mode={out['mode']}, mass={out['count']:g}, {out['wall_time_us']:.0f}us)")
    return 0


# ---------------------------------------------------------------------------
# partition


def cmd_partition(args: argparse.Namespace) -> int:
    pts = storage.ingest(args.input)
    kind = SHANNON if args.kind == "shannon" else renyi_kind(args.alpha)
    if args.backend == "oracle":
        backend = partition.OracleBackend(pts, kind)
    elif args.backend == "exact":
        # t = 1, one bucket: the 1-D jobs read rows, not the table, and exactnd ignores t
        orders = () if kind.is_shannon else (kind.alpha,)
        if pts.dim == 1:
            index = exact1d.Exact1DIndex(pts, 1.0, orders)
        elif args.algorithm != "greedy-tree":
            raise DataFormatError(f"--algorithm {args.algorithm} with --backend exact needs 1-D points")
        else:
            index = exactnd.ExactNDIndex(pts, 1.0, orders)
        backend = partition.ExactIndexBackend(index, kind)
    else:
        backend = partition.EstimateBackend(
            EstimatorIndex(pts), mode="additive", delta=args.delta,
            alpha=None if kind.is_shannon else kind.alpha,
            rng=np.random.default_rng(args.seed),
        )

    if args.algorithm == "greedy-tree":
        part = partition.greedy_tree_split(pts, args.k, backend, objective=args.objective)
        payload = {
            "algorithm": args.algorithm,
            "k": args.k,
            "leaves": [
                {"rect": [list(leaf.rect.lo), list(leaf.rect.hi)],
                 "points": len(leaf.point_ids), "score": leaf.score}
                for leaf in part.leaves
            ],
            "objective": args.objective,
            "value": (max if args.objective == "min" else min)(part.scores),
            "backend": part.backend_info,
        }
    else:
        if args.algorithm == "dp":
            out = partition.maxpart_dp(pts, args.k, backend, objective=args.objective)
        elif args.algorithm == "maxpart-approx":
            out = partition.maxpart_approx(pts, args.k, args.epsilon, backend)
        else:
            out = partition.sumpart_approx(pts, args.k, args.epsilon, backend)
        sorted_x = stable_order(pts.coords[:, 0])[1]
        boundaries = [float(sorted_x[c - 1]) for c in out.cuts[1:-1]]
        payload = {
            "algorithm": args.algorithm,
            "k": out.k,
            "cuts": list(out.cuts),
            "cut_coordinates": boundaries,
            "bucket_scores": list(out.scores),
            "value": out.value,
            "backend": out.backend_info,
        }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{payload['algorithm']}: k={payload['k']} value={payload['value']:.6f}")
        if "cuts" in payload:
            print(f"cuts: {payload['cuts']}")
            print(f"scores: {['%.4f' % s for s in payload['bucket_scores']]}")
        else:
            for leaf in payload["leaves"]:
                print(f"  rect={leaf['rect']} points={leaf['points']} score={leaf['score']:.4f}")
    return 0


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entrange",
                                     description="Range entropy queries and partitioning")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an index from CSV/TSV and save it")
    b.add_argument("--input", required=True)
    b.add_argument("--kind", required=True, choices=storage.INDEX_KINDS)
    b.add_argument("--out", required=True)
    b.add_argument("--t", type=float, default=0.5)
    b.add_argument("--alphas", default="", help="comma-separated Renyi orders to precompute")
    b.add_argument("--epsilon", type=float, default=0.2)
    b.add_argument("--alpha", type=float, default=2.0)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="answer one range entropy query")
    q.add_argument("--index", required=True)
    q.add_argument("--rect", required=True, help='per-dim "lo:hi", comma-separated; * = unbounded')
    q.add_argument("--kind", default="shannon", choices=("shannon", "renyi"))
    q.add_argument("--alpha", type=float, default=2.0)
    q.add_argument("--mode", default="exact",
                   choices=("exact", "additive", "multiplicative", "deterministic"))
    q.add_argument("--delta", type=float, default=0.1)
    q.add_argument("--epsilon", type=float, default=0.2)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_query)

    p = sub.add_parser("partition", help="entropy-driven partitioning")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algorithm", default="dp",
                   choices=("dp", "maxpart-approx", "sumpart", "greedy-tree"))
    p.add_argument("--backend", default="oracle", choices=("oracle", "exact", "estimate"))
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--objective", default="min", choices=("min", "max"))
    p.add_argument("--kind", default="shannon", choices=("shannon", "renyi"))
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_partition)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except IndexFileError as exc:
        print(f"index error: {exc}", file=sys.stderr)
        return 4
    except EntrangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
