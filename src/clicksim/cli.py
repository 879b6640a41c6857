"""Command-line interface.

One binary, subcommand style:

    clicksim ingest-check GRAPH
    clicksim generate   --queries N --ads M --edges E --seed S -o FILE
    clicksim compute    --graph FILE --method simple -o FILE
    clicksim rewrite    --graph FILE [--scores DUMP | --method M] -o FILE
    clicksim evaluate   desirability|judgments ...
    clicksim oracle     k22|k12|evidence-k22 --c1 C --c2 C --k K

Data goes to the output file (or standard output for ``-``); progress
and timing diagnostics go to standard error, so runs with a fixed seed
are byte-identical on the data channel.
"""

import argparse
import math
import resource
import sys
import time
from typing import Sequence

import numpy as np

from .baselines import common_ad_scores, pearson_scores
from .evaluation import (
    JudgmentSet,
    desirability_experiment,
    precision_recall,
    select_triples,
)
from .evidence import EvidenceKind, evidence_simrank
from .graph import (
    ClickGraph,
    GraphFormatError,
    _component_labels,
    generate_synthetic,
    load_graph,
    save_graph,
)
from .rewrite import (
    BidTermList,
    coverage,
    depth_histogram,
    read_rewrites,
    top_rewrites,
    write_rewrites,
)
from .oracles import (
    closed_form_evidence_k22,
    closed_form_k12,
    closed_form_k22,
    closed_form_k22_limit,
)
from .simrank import Method, SimilarityScores, SimRankParams, simrank
from .weighted import weighted_simrank

_ENGINE_METHODS = ("simple", "evidence", "weighted")
_ALL_METHODS = _ENGINE_METHODS + ("pearson", "common")


def _decay(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"decay {value} outside (0, 1]"
        )
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"{value} is not finite and non-negative")
    return value


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--c1", type=_decay, default=0.8,
                        help="query-side decay factor (default 0.8)")
    parser.add_argument("--c2", type=_decay, default=0.8,
                        help="ad-side decay factor (default 0.8)")
    parser.add_argument("--max-iterations", type=_positive_int, default=10,
                        help="iteration cap (default 10)")
    parser.add_argument("--epsilon", type=_nonnegative_float, default=1e-4,
                        help="convergence threshold on score change")
    parser.add_argument("--threshold", type=_nonnegative_float, default=1e-4,
                        help="scores below this are pruned each round")
    parser.add_argument("--evidence-kind", choices=["geometric", "exponential"],
                        default="geometric",
                        help="common-neighbor evidence shape")
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads; output is identical for any value")


def _params_from(args: argparse.Namespace) -> SimRankParams:
    return SimRankParams(
        c1=args.c1,
        c2=args.c2,
        max_iterations=args.max_iterations,
        convergence_epsilon=args.epsilon,
        min_score_threshold=args.threshold,
    )


def _compute_scores(
    graph: ClickGraph, method: str, args: argparse.Namespace
) -> SimilarityScores:
    if method == "pearson":
        return pearson_scores(graph)
    if method == "common":
        return common_ad_scores(graph)
    params = _params_from(args)
    kind = EvidenceKind(args.evidence_kind)
    if method == "simple":
        return simrank(graph, params, threads=args.threads)
    if method == "evidence":
        return evidence_simrank(graph, params, kind, threads=args.threads)
    return weighted_simrank(graph, params, kind, threads=args.threads)


def _open_output(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_ingest_check(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    count, _, edge_labels = _component_labels(graph)
    edges = np.bincount(edge_labels, minlength=count)
    print(f"queries\t{graph.num_queries}")
    print(f"ads\t{graph.num_ads}")
    print(f"edges\t{graph.num_edges}")
    print(f"components\t{count}")
    print(f"largest_component_edges\t{edges.max(initial=0)}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    graph = generate_synthetic(
        args.queries,
        args.ads,
        args.edges,
        powerlaw_exponent=args.exponent,
        seed=args.seed,
    )
    generated = time.perf_counter()
    out, close = _open_output(args.output)
    try:
        save_graph(graph, out)
    finally:
        if close:
            out.close()
    written = time.perf_counter()
    print(
        f"generated {graph.num_edges} edges "
        f"generate={generated - started:.2f}s write={written - generated:.2f}s "
        f"wall={written - started:.2f}s",
        file=sys.stderr,
    )
    return 0


def _peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cmd_compute(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    graph = load_graph(args.graph)
    loaded = time.perf_counter()
    scores = _compute_scores(graph, args.method, args)
    scored = time.perf_counter()
    out, close = _open_output(args.output)
    try:
        scores.write(out)
    finally:
        if close:
            out.close()
    written = time.perf_counter()
    print(
        f"method={scores.method} iterations={scores.iterations_run} "
        f"converged={str(scores.converged).lower()} "
        f"pairs={scores.pair_count} load={loaded - started:.2f}s "
        f"score={scored - loaded:.2f}s write={written - scored:.2f}s "
        f"wall={written - started:.2f}s peak_rss_mb={_peak_rss_mb():.0f}",
        file=sys.stderr,
    )
    return 0


def cmd_rewrite(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    graph = load_graph(args.graph)
    loaded = time.perf_counter()
    if args.scores is not None:
        scores = SimilarityScores.read(args.scores, graph)
        phase = "read"
    else:
        scores = _compute_scores(graph, args.method, args)
        phase = "score"
    scored = time.perf_counter()
    bids = BidTermList.load(args.bids) if args.bids else None
    lists = [
        top_rewrites(
            scores,
            query,
            candidate_cap=args.candidate_cap,
            final_cap=args.final_cap,
            bids=bids,
        )
        for query in graph.queries()
    ]
    ranked = time.perf_counter()
    out, close = _open_output(args.output)
    try:
        write_rewrites(lists, out)
    finally:
        if close:
            out.close()
    written = time.perf_counter()
    covered = coverage(lists, graph.query_labels)
    histogram = depth_histogram(lists, max_depth=args.final_cap)
    depths = " ".join(f"{d}:{f:.3f}" for d, f in histogram.items())
    print(f"coverage={covered:.3f} depth_histogram={depths}", file=sys.stderr)
    print(
        f"load={loaded - started:.2f}s {phase}={scored - loaded:.2f}s "
        f"rank={ranked - scored:.2f}s write={written - ranked:.2f}s "
        f"wall={written - started:.2f}s peak_rss_mb={_peak_rss_mb():.0f}",
        file=sys.stderr,
    )
    return 0


def cmd_evaluate_desirability(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    triples = select_triples(graph, args.n, args.seed)
    params = _params_from(args)
    accuracy = desirability_experiment(
        graph, triples, Method(args.method), params, threads=args.threads
    )
    print(
        f"desirability experiment: {round(accuracy * args.n)}/{args.n} "
        f"orderings agree"
    )
    print(f"method={args.method}")
    print(f"accuracy={accuracy:.6f}")
    print(f"n={args.n}")
    print(f"seed={args.seed}")
    return 0


def cmd_evaluate_judgments(args: argparse.Namespace) -> int:
    lists = read_rewrites(args.rewrites)
    judgments = JudgmentSet.load(args.judgments)
    positives = {int(g) for g in args.positives.split(",")}
    report = precision_recall(lists, judgments, positives)
    print(f"queries_evaluated={len(report.per_query_precision)}")
    print(f"macro_precision={report.macro_precision:.6f}")
    if report.macro_recall is None:
        print("macro_recall=undefined")
    else:
        print(f"macro_recall={report.macro_recall:.6f}")
    for x in sorted(report.precision_at):
        print(f"precision_at_{x}={report.precision_at[x]:.6f}")
    if report.interpolated_precision:
        curve = " ".join(f"{p:.4f}" for p in report.interpolated_precision)
        print(f"interpolated_precision={curve}")
    if args.sample:
        with open(args.sample, encoding="utf-8") as fh:
            sample = [line.strip() for line in fh if line.strip()]
        print(f"coverage={coverage(lists, sample):.6f}")
    histogram = depth_histogram(lists, max_depth=args.max_depth)
    for depth, fraction in histogram.items():
        print(f"depth_{depth}={fraction:.6f}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.form == "k22":
        if args.limit:
            value = closed_form_k22_limit(args.c1, args.c2)
        else:
            value = closed_form_k22(args.c1, args.c2, args.k)
    elif args.form == "k12":
        value = closed_form_k12(args.c1, args.c2, args.k)
    else:
        value = closed_form_evidence_k22(args.c1, args.c2, args.k)
    print(f"{value:.10f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clicksim",
        description="Query similarity over click graphs: SimRank variants, "
        "rewrites, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="validate a graph file and "
                       "print summary counts")
    p.add_argument("graph", help="tab-separated graph file")
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("generate", help="write a seeded synthetic click graph")
    p.add_argument("--queries", type=_positive_int, required=True)
    p.add_argument("--ads", type=_positive_int, required=True)
    p.add_argument("--edges", type=_positive_int, required=True)
    p.add_argument("--exponent", type=float, default=2.2,
                   help="degree power-law exponent (default 2.2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-",
                   help="output path, or - for standard output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compute", help="score query pairs and dump them")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=_ALL_METHODS, default="simple")
    _add_engine_flags(p)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("rewrite", help="build filtered rewrite lists")
    p.add_argument("--graph", required=True)
    p.add_argument("--scores", help="reuse an existing score dump")
    p.add_argument("--method", choices=_ALL_METHODS, default="simple",
                   help="scoring method when --scores is not given")
    _add_engine_flags(p)
    p.add_argument("--bids", help="file of bid terms; rewrites outside it "
                   "are dropped")
    p.add_argument("--candidate-cap", type=_positive_int, default=100)
    p.add_argument("--final-cap", type=_positive_int, default=5)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("evaluate", help="run an evaluation protocol")
    eval_sub = p.add_subparsers(dest="protocol", required=True)

    d = eval_sub.add_parser("desirability",
                            help="edge-removal ordering experiment")
    d.add_argument("--graph", required=True)
    d.add_argument("--n", type=_positive_int, default=50,
                   help="number of probe triples (default 50)")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--method", choices=_ENGINE_METHODS, default="simple")
    _add_engine_flags(d)
    d.set_defaults(func=cmd_evaluate_desirability)

    j = eval_sub.add_parser("judgments",
                            help="precision/recall against editorial grades")
    j.add_argument("--rewrites", required=True)
    j.add_argument("--judgments", required=True)
    j.add_argument("--positives", default="1,2",
                   help="comma-separated relevant grades (default 1,2)")
    j.add_argument("--sample", help="query sample file for coverage")
    j.add_argument("--max-depth", type=_positive_int, default=5)
    j.set_defaults(func=cmd_evaluate_judgments)

    # debugging aid; carries no help line on purpose
    p = sub.add_parser("oracle")
    p.add_argument("form", choices=["k22", "k12", "evidence-k22"])
    p.add_argument("--c1", type=_decay, default=0.8)
    p.add_argument("--c2", type=_decay, default=0.8)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--limit", action="store_true",
                   help="print the k22 large-k limit instead")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: bad graph file: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
