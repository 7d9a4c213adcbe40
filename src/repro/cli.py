"""Command-line interface: count, sample, estimate and serve F0.

Examples::

    python -m repro count formula.cnf --algorithm bucketing --eps 0.8
    python -m repro count formula.cnf --oracle bruteforce
    python -m repro count formula.dnf --algorithm minimum --workers 4
    python -m repro count formula.cnf --kernel numba
    python -m repro count formula.cnf --workers 4 --executor thread
    python -m repro sample formula.dnf --count 5
    python -m repro list
    python -m repro f0 items.txt --universe-bits 16 --sketch minimum
    python -m repro f0 items.txt --universe-bits 16 --workers 0
    python -m repro f0 items.txt --universe-bits 16 --window 3600
    python -m repro serve --port 8080 --snapshot sketches.bin
    python -m repro serve --sweep-interval 30
    python -m repro serve --snapshot-on-exit exit.bin
    python -m repro serve --frontend multiproc --procs 4
    python -m repro serve --cluster http://h1:8081,http://h2:8082
    python -m repro rebalance --from http://h1:8081,http://h2:8082 \
        --to http://h1:8081,http://h2:8082,http://h3:8083
    python -m repro push clicks items.txt --create --universe-bits 32
    python -m repro push clicks items.txt --workers 4
    python -m repro query clicks
    python -m repro query clicks --window 900

``count`` accepts DIMACS ``p cnf`` and ``p dnf`` files (sniffed from the
problem line); ``f0`` reads one integer item per line.  ``--workers``
fans counter repetitions / stream chunks out over a worker pool
(``0`` = all cores) with bit-identical results to serial execution;
``--executor`` picks the pool backend (``serial``/``thread``/
``process``/``auto``; the ``REPRO_EXECUTOR`` environment variable sets
the session default, and ``auto`` picks threads when the kernel releases
the GIL, processes otherwise).
``--oracle`` selects the NP-oracle solver backend and ``--kernel`` the
compute kernel driving the solver and hashing inner loops (the
``REPRO_KERNEL`` environment variable sets the session default).  Both
``--kernel`` and ``--executor`` set the process-wide choice for one
command, pool workers included.
``python -m repro list`` lists every registry -- oracle backends,
kernels, executors, front ends -- with what is installed and what each
name resolves to here.

``serve`` runs the long-lived sketch service of :mod:`repro.service` --
``--frontend`` picks the transport (``REPRO_FRONTEND``/``REPRO_PROCS``
set session defaults the same way ``REPRO_KERNEL`` does),
``--frontend multiproc --procs N`` pre-forks N
shared-nothing workers on one port, ``--snapshot-on-exit`` makes
SIGTERM/SIGINT shutdowns durable, ``--sweep-interval`` runs a periodic
TTL sweep so expired sketches are shed without read traffic, and
``--cluster`` turns the process
into a consistent-hashing gateway over several node services
(:mod:`repro.distributed.cluster`).  ``rebalance`` streams sketch
frames to their new owners after the cluster's node set changes,
moving only names whose ring ownership moved.  ``push`` ingests an
item file into a local replica of a named served sketch and uploads
one merge (``--workers`` fans the file over a process pool first);
``query`` reads its current estimate.  See ``docs/TUTORIAL.md`` for
the full service walkthrough.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Iterator, List, Optional, Sequence, Union

from repro.baselines.karp_luby import karp_luby_count
from repro.common.errors import InvalidParameterError, ReproError
from repro.core.approxmc import approx_mc
from repro.core.est_count import approx_model_count_est
from repro.core.exact import exact_model_count
from repro.core.min_count import approx_model_count_min
from repro.core.sampling import sample_solutions
from repro.formulas.cnf import CnfFormula
from repro.formulas.dimacs import parse_dimacs_cnf, parse_dimacs_dnf
from repro.formulas.dnf import DnfFormula
from repro.kernels import KERNELS
from repro.parallel import EXECUTORS
from repro.sat.backends import BACKENDS
from repro.service.frontends import FRONTENDS
from repro.store.factory import SKETCH_KINDS, build_sketch
from repro.streaming.base import (
    DEFAULT_CHUNK_SIZE,
    SketchParams,
    compute_f0,
    item_error,
)

Formula = Union[CnfFormula, DnfFormula]


def _load_formula(path: str) -> Formula:
    with open(path) as f:
        text = f.read()
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("p "):
            kind = stripped.split()[1]
            if kind == "cnf":
                return parse_dimacs_cnf(text)
            if kind == "dnf":
                return parse_dimacs_dnf(text)
            raise SystemExit(f"unsupported problem kind {kind!r}")
    raise SystemExit("no DIMACS problem line found")


def _params(args: argparse.Namespace) -> SketchParams:
    return SketchParams(eps=args.eps, delta=args.delta,
                        thresh_constant=args.thresh_constant,
                        repetitions_constant=args.repetitions_constant)


def _cmd_count(args: argparse.Namespace) -> int:
    formula = _load_formula(args.formula)
    rng = random.Random(args.seed)
    if args.algorithm in ("exact", "karp-luby") and args.oracle:
        raise SystemExit(
            f"--oracle has no effect on --algorithm {args.algorithm} "
            "(no NP-oracle probes are issued); drop the flag")
    if args.algorithm in ("exact", "karp-luby") and args.kernel:
        raise SystemExit(
            f"--kernel has no effect on --algorithm {args.algorithm} "
            "(no solver or hash inner loops run); drop the flag")
    if args.algorithm == "exact":
        print(exact_model_count(formula))
        return 0
    if args.algorithm == "karp-luby":
        if not isinstance(formula, DnfFormula):
            raise SystemExit("karp-luby only applies to DNF formulas")
        result = karp_luby_count(formula, args.eps, args.delta, rng)
        print(f"{result.estimate:.6g}")
        print(f"samples: {result.samples}", file=sys.stderr)
        return 0
    params = _params(args)
    runner = {
        "bucketing": approx_mc,
        "minimum": approx_model_count_min,
        "estimation": approx_model_count_est,
    }[args.algorithm]
    result = runner(formula, params, rng, workers=args.workers,
                    backend=args.oracle)
    print(f"{result.estimate:.6g}")
    print(f"oracle calls: {result.oracle_calls}", file=sys.stderr)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    formula = _load_formula(args.formula)
    rng = random.Random(args.seed)
    for model in sample_solutions(formula, rng, args.count,
                                  backend=args.oracle):
        lits = [v if (model >> (v - 1)) & 1 else -v
                for v in range(1, formula.num_vars + 1)]
        print(" ".join(str(l) for l in lits) + " 0")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    """List every registry with what each name resolves to here."""
    for title, flag, registry in (("oracle backends", "--oracle", BACKENDS),
                                  ("kernels", "--kernel", KERNELS),
                                  ("executors", "--executor", EXECUTORS),
                                  ("front ends", "--frontend", FRONTENDS)):
        env = (f"; ${registry.env_var} sets the session default"
               if registry.env_var else "")
        print(f"{title} ({flag}{env}):")
        for name in registry.names():
            entry = registry.info(name)
            marker = " (default)" if name == registry.default else ""
            status = ("" if entry.available
                      else f" [unavailable: {entry.unavailable_reason}]")
            gil = " [releases GIL]" if entry.releases_gil else ""
            print(f"  {name}{marker}: {entry.description}{status}{gil}")
        print(f"  resolved: {registry.resolve()} ({registry.source()})")
        print()
    return 0


def _read_items(f, universe_bits: Optional[int]) -> Iterator[int]:
    """The items of an open file, one integer per non-blank line; a line
    that is not an item of the sketch exits with one line naming it."""
    for lineno, line in enumerate(f, 1):
        if not line.strip():
            continue
        try:
            x = int(line)
        except ValueError:
            x = line.strip()
        reason = item_error(x, universe_bits)
        if reason is not None:
            raise SystemExit(f"{f.name}:{lineno}: {reason}")
        yield x


def _cmd_f0(args: argparse.Namespace) -> int:
    try:
        estimator = build_sketch(args.sketch, args.universe_bits,
                                 _params(args), seed=args.seed,
                                 window=args.window, buckets=args.buckets)
    except InvalidParameterError as exc:
        raise SystemExit(str(exc))
    with open(args.items) as f:
        items = _read_items(f, estimator.universe_bits)
        value = compute_f0(items, estimator, chunk_size=args.chunk_size,
                           workers=args.workers)
    print(f"{value:.6g}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    router = None
    if args.cluster:
        from repro.distributed.cluster import ClusterClient, ClusterRouter

        nodes = [n.strip() for n in args.cluster.split(",") if n.strip()]
        if len(nodes) < 1:
            raise SystemExit("--cluster needs a comma-separated list "
                             "of node service URLs")
        if args.snapshot or args.restore or args.snapshot_on_exit:
            raise SystemExit(
                "--snapshot/--restore/--snapshot-on-exit are per-node "
                "options; a --cluster gateway holds no store of its own")
        if args.sweep_interval is not None:
            raise SystemExit(
                "--sweep-interval is a per-node option; a --cluster "
                "gateway holds no store to sweep")
        router = ClusterRouter(
            ClusterClient(nodes, replication=args.replication))
    try:
        # Explicit --frontend was validated by argparse; this resolves
        # the override / REPRO_FRONTEND / default chain (a bad env
        # value surfaces here as a one-line error, not a traceback).
        frontend = FRONTENDS.resolve(args.frontend)
    except ReproError as exc:
        raise SystemExit(str(exc))
    if frontend != "multiproc":
        if args.procs is not None:
            raise SystemExit(
                f"--procs only applies to --frontend multiproc "
                f"(resolved front end: {frontend!r})")
        if args.delta_interval is not None:
            raise SystemExit(
                f"--delta-interval only applies to --frontend multiproc "
                f"(resolved front end: {frontend!r})")
    try:
        serve(host=args.host, port=args.port,
              snapshot_path=args.snapshot, restore=args.restore,
              verbose=not args.quiet, frontend=frontend,
              snapshot_on_exit=args.snapshot_on_exit, router=router,
              procs=args.procs, delta_interval=args.delta_interval,
              sweep_interval=args.sweep_interval)
    except ReproError as exc:
        raise SystemExit(str(exc))
    return 0


def _cmd_rebalance(args: argparse.Namespace) -> int:
    from repro.distributed.cluster import ClusterError, rebalance
    from repro.service.client import ServiceError

    old_nodes = [n.strip() for n in args.from_nodes.split(",")
                 if n.strip()]
    new_nodes = [n.strip() for n in args.to_nodes.split(",") if n.strip()]
    if not old_nodes or not new_nodes:
        raise SystemExit("--from and --to each need a comma-separated "
                         "list of node service URLs")
    try:
        report = rebalance(old_nodes, new_nodes,
                           replication=args.replication,
                           prune=args.prune, dry_run=args.dry_run)
    except (ClusterError, ServiceError) as exc:
        raise SystemExit(str(exc))
    verb = "would move" if args.dry_run else "moved"
    print(f"{verb} {report['moved_frames']} frame(s) for "
          f"{len(report['moves'])} of {report['names']} sketch(es); "
          f"pruned {report['pruned']}")
    for move in report["moves"]:
        print(f"  {move['name']}: -> {', '.join(move['targets'])}",
              file=sys.stderr)
    return 0


def _cmd_push(args: argparse.Namespace) -> int:
    import time

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.server)
    if args.create:
        if args.sketch != "exact" and args.universe_bits is None:
            raise SystemExit("--create needs --universe-bits for hashed "
                             "sketches")
        try:
            client.create(args.name, kind=args.sketch,
                          universe_bits=args.universe_bits or 0,
                          eps=args.eps, delta=args.delta,
                          thresh_constant=args.thresh_constant,
                          repetitions_constant=args.repetitions_constant,
                          seed=args.seed, ttl=args.ttl,
                          window=args.window, buckets=args.buckets)
        except ServiceError as exc:
            raise SystemExit(str(exc))
    try:
        replica = client.replica(args.name)
        pushed = [0]

        def counted(items):
            for x in items:
                pushed[0] += 1
                yield x

        started = time.perf_counter()
        with open(args.items) as f:
            # With --workers, compute_f0 scatters the chunks over
            # replicas (same hash seeds) and merges them back into this
            # one, so a single frame goes up either way.
            compute_f0(counted(_read_items(f, replica.universe_bits)),
                       replica, chunk_size=args.chunk_size,
                       workers=args.workers)
        client.push(args.name, replica)
        total = pushed[0]
        elapsed = time.perf_counter() - started
        estimate = client.estimate(args.name)
    except ServiceError as exc:
        raise SystemExit(str(exc))
    rate = total / elapsed if elapsed > 0 else float("inf")
    print(f"{estimate:.6g}")
    print(f"pushed {total} items to {args.name!r} "
          f"({rate:.0f} items/s)", file=sys.stderr)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.server)
    try:
        if args.info:
            info = client.info(args.name)
            for key in sorted(info):
                print(f"{key}: {info[key]}")
        else:
            print(f"{client.estimate(args.name, window=args.window):.6g}")
    except ServiceError as exc:
        raise SystemExit(str(exc))
    return 0


def _bounded_arg(kind: type, lower: float, strict: bool, message: str):
    """An argparse ``type`` parsing ``kind`` and rejecting values below
    ``lower`` (or equal to it when ``strict``) with ``message``: a
    one-line usage error instead of a traceback from deep inside the
    layer that would reject the value later."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}")
        if value < lower or (strict and value == lower):
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


_workers_arg = _bounded_arg(
    int, 0, False, "workers must be >= 0 (1 = serial, 0 = all cores)")
_procs_arg = _bounded_arg(int, 0, False, "procs must be >= 0 (0 = all cores)")
_delta_interval_arg = _bounded_arg(
    float, 0, False,
    "delta interval must be >= 0 seconds (0 = publish immediately)")
_window_arg = _bounded_arg(float, 0, True, "window must be > 0 time units")
_buckets_arg = _bounded_arg(int, 1, False, "buckets must be >= 1 ring buckets")
_sweep_interval_arg = _bounded_arg(
    float, 0, True, "sweep interval must be > 0 seconds")
_chunk_size_arg = _bounded_arg(
    int, 0, True, "chunk size must be a positive integer")
_replication_arg = _bounded_arg(
    int, 1, False, "replication must be >= 1 replicas per sketch name")


def _input_file_arg(text: str) -> str:
    """Validate an input-file argument exists up front, so a typo fails
    with a one-line usage error instead of a FileNotFoundError traceback
    halfway into the run.  Pipes and process substitution
    (``/dev/stdin``, ``<(...)``) pass through -- anything readable that
    is not a directory."""
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"no such file: {text!r}")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"is a directory: {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser: one subcommand per verb."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Model counting meets F0 estimation (PODS 2021)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--eps", type=float, default=0.8,
                       help="relative tolerance (default 0.8)")
        p.add_argument("--delta", type=float, default=0.2,
                       help="failure probability (default 0.2)")
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed (default 0)")
        p.add_argument("--thresh-constant", type=float, default=96.0,
                       help="Thresh = c/eps^2 constant (paper: 96)")
        p.add_argument("--repetitions-constant", type=float, default=35.0,
                       help="t = c ln(1/delta) constant (paper: 35)")

    def add_workers(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=_workers_arg, default=1,
                       help="pool workers (1 = serial, 0 = all "
                            "cores); estimates are bit-identical for "
                            "any worker count")
        p.add_argument("--executor", type=EXECUTORS.arg_type, default=None,
                       metavar="BACKEND",
                       help="pool backend for --workers (see `repro "
                            f"list`; default ${EXECUTORS.env_var} or "
                            f"{EXECUTORS.default})")

    def add_oracle(p: argparse.ArgumentParser) -> None:
        p.add_argument("--oracle", type=BACKENDS.arg_type, default=None,
                       metavar="BACKEND",
                       help="NP-oracle solver backend (see `repro "
                            f"list`; default {BACKENDS.default})")

    def add_kernel(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kernel", type=KERNELS.arg_type, default=None,
                       metavar="KERNEL",
                       help="compute kernel for the solver and hashing "
                            "inner loops (see `repro list`; default "
                            f"${KERNELS.env_var} or {KERNELS.default})")

    count = sub.add_parser("count", help="approximate model counting")
    count.add_argument("formula", type=_input_file_arg,
                       help="DIMACS cnf/dnf file")
    count.add_argument("--algorithm", default="bucketing",
                       choices=["bucketing", "minimum", "estimation",
                                "karp-luby", "exact"])
    add_common(count)
    add_workers(count)
    add_oracle(count)
    add_kernel(count)
    count.set_defaults(func=_cmd_count)

    sample = sub.add_parser("sample", help="near-uniform solution samples")
    sample.add_argument("formula", type=_input_file_arg,
                        help="DIMACS cnf/dnf file")
    sample.add_argument("--count", type=int, default=1)
    add_common(sample)
    add_oracle(sample)
    add_kernel(sample)
    sample.set_defaults(func=_cmd_sample)

    listing = sub.add_parser(
        "list",
        help="list oracle backends, compute kernels, executors and "
             "front ends")
    listing.set_defaults(func=_cmd_list)

    f0 = sub.add_parser("f0", help="distinct elements of an item stream")
    f0.add_argument("items", type=_input_file_arg,
                    help="file with one integer item per line")
    f0.add_argument("--universe-bits", type=int, required=True)
    f0.add_argument("--sketch", default="minimum",
                    choices=list(SKETCH_KINDS))
    f0.add_argument("--window", type=_window_arg, default=None,
                    metavar="SPAN",
                    help="wrap the sketch in a sliding window spanning "
                         "this much logical time (counts reflect only "
                         "the trailing SPAN once advanced)")
    f0.add_argument("--buckets", type=_buckets_arg, default=None,
                    metavar="K",
                    help="ring buckets for --window (default 8; "
                         "estimate granularity is SPAN/K)")
    f0.add_argument("--chunk-size", type=_chunk_size_arg,
                    default=DEFAULT_CHUNK_SIZE,
                    help="batch-ingestion chunk size "
                         f"(default {DEFAULT_CHUNK_SIZE})")
    add_common(f0)
    add_workers(f0)
    add_kernel(f0)
    f0.set_defaults(func=_cmd_f0)

    serve = sub.add_parser(
        "serve", help="run the long-lived F0 sketch service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (default 8080; 0 = ephemeral)")
    serve.add_argument("--snapshot", default=None, metavar="PATH",
                       help="default snapshot/restore file for the "
                            "/v1/snapshot and /v1/restore endpoints")
    serve.add_argument("--restore", action="store_true",
                       help="restore from --snapshot before serving "
                            "(a missing file starts the service empty)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request log lines")
    serve.add_argument("--frontend", type=FRONTENDS.arg_type, default=None,
                       metavar="NAME",
                       help="transport front end (see `repro list`; "
                            f"default ${FRONTENDS.env_var} or "
                            f"{FRONTENDS.default})")
    serve.add_argument("--procs", type=_procs_arg, default=None,
                       metavar="N",
                       help="worker processes for --frontend multiproc "
                            "(0 = all cores; default $REPRO_PROCS or 2)")
    serve.add_argument("--delta-interval", type=_delta_interval_arg,
                       default=None, metavar="SECONDS",
                       help="multiproc delta-publish coalescing "
                            "interval (default 0 = publish each "
                            "acknowledged write immediately)")
    serve.add_argument("--sweep-interval", type=_sweep_interval_arg,
                       default=None, metavar="SECONDS",
                       help="run a periodic TTL sweep over the store "
                            "every SECONDS, so expired sketches are "
                            "shed even with no read traffic (default: "
                            "lazy reaping only)")
    serve.add_argument("--snapshot-on-exit", default=None, metavar="PATH",
                       help="snapshot the store here on graceful "
                            "shutdown (SIGTERM/SIGINT)")
    serve.add_argument("--cluster", default=None, metavar="URLS",
                       help="serve as a gateway over these "
                            "comma-separated node service URLs "
                            "(consistent hashing + replication) "
                            "instead of a local store")
    serve.add_argument("--replication", type=_replication_arg, default=2,
                       help="replicas per sketch name in --cluster "
                            "mode (default 2, capped at node count)")
    serve.set_defaults(func=_cmd_serve)

    rebalance = sub.add_parser(
        "rebalance",
        help="stream frames to new ring owners after a node-set change")
    rebalance.add_argument("--from", dest="from_nodes", required=True,
                           metavar="URLS",
                           help="comma-separated node URLs before the "
                                "topology change")
    rebalance.add_argument("--to", dest="to_nodes", required=True,
                           metavar="URLS",
                           help="comma-separated node URLs after the "
                                "topology change")
    rebalance.add_argument("--replication", type=_replication_arg,
                           default=2,
                           help="replicas per sketch name (must match "
                                "the cluster clients'; default 2)")
    rebalance.add_argument("--prune", action="store_true",
                           help="delete moved names from nodes that "
                                "lost ownership (default keeps them; "
                                "set semantics make extras harmless)")
    rebalance.add_argument("--dry-run", action="store_true",
                           help="plan and report without moving frames")
    rebalance.set_defaults(func=_cmd_rebalance)

    push = sub.add_parser(
        "push", help="ingest an item file into a served sketch")
    push.add_argument("name", help="served sketch name")
    push.add_argument("items", type=_input_file_arg,
                      help="file with one integer item per line")
    push.add_argument("--server", default="http://127.0.0.1:8080",
                      help="service base URL (default "
                           "http://127.0.0.1:8080)")
    push.add_argument("--create", action="store_true",
                      help="create the sketch first (with --sketch / "
                           "--universe-bits / the common knobs)")
    push.add_argument("--sketch", default="minimum",
                      choices=list(SKETCH_KINDS))
    push.add_argument("--universe-bits", type=int, default=None)
    push.add_argument("--ttl", type=float, default=None,
                      help="expire the sketch this many seconds after "
                           "its last update (with --create)")
    push.add_argument("--window", type=_window_arg, default=None,
                      metavar="SPAN",
                      help="create the sketch as a sliding window over "
                           "SPAN logical time units (with --create)")
    push.add_argument("--buckets", type=_buckets_arg, default=None,
                      metavar="K",
                      help="ring buckets for --window (with --create; "
                           "default 8)")
    push.add_argument("--chunk-size", type=_chunk_size_arg,
                      default=DEFAULT_CHUNK_SIZE,
                      help="batch-ingestion chunk size "
                           f"(default {DEFAULT_CHUNK_SIZE})")
    add_common(push)
    add_workers(push)
    push.set_defaults(func=_cmd_push)

    query = sub.add_parser(
        "query", help="read a served sketch's current estimate")
    query.add_argument("name", help="served sketch name")
    query.add_argument("--server", default="http://127.0.0.1:8080",
                       help="service base URL (default "
                            "http://127.0.0.1:8080)")
    query.add_argument("--info", action="store_true",
                       help="print full metadata instead of the bare "
                            "estimate")
    query.add_argument("--window", type=_window_arg, default=None,
                       metavar="SPAN",
                       help="for windowed sketches: estimate only the "
                            "trailing SPAN time units")
    query.set_defaults(func=_cmd_query)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (also used directly by the test suite)."""
    args = build_parser().parse_args(argv)
    kernel = getattr(args, "kernel", None)
    executor = getattr(args, "executor", None)
    try:
        # Resolve once, up front: a bad REPRO_KERNEL / REPRO_EXECUTOR is
        # a one-line exit here, not a traceback from inside a pool worker.
        KERNELS.resolve(kernel)
        EXECUTORS.resolve(executor)
    except ReproError as exc:
        raise SystemExit(str(exc))
    if kernel is None and executor is None:
        return args.func(args)
    # Scope the registry defaults to this invocation: everything the
    # command runs picks the kernel/executor up from the registries, and
    # in-process callers (the test suite) get their own overrides back.
    previous = KERNELS.override, EXECUTORS.override
    if kernel is not None:
        KERNELS.set_default(kernel)
    if executor is not None:
        EXECUTORS.set_default(executor)
    try:
        return args.func(args)
    finally:
        KERNELS.set_default(previous[0])
        EXECUTORS.set_default(previous[1])


if __name__ == "__main__":
    raise SystemExit(main())
