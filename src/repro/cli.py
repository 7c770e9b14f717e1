"""Command-line interface for running the protocols on real data files.

While :mod:`repro.experiments` reproduces the paper's figures on synthetic
data, this CLI is the "production" entry point a practitioner would use:

* ``repro-cli generate``  -- write a synthetic population to a CSV file
  (handy for demos and for testing pipelines end to end);
* ``repro-cli run``       -- read one integer column from a CSV file (one
  row per user), execute a chosen protocol under a chosen epsilon, and
  print / save range, prefix and quantile answers as JSON;
* ``repro-cli compare``   -- run several methods on the same file and
  report their mean squared error against the exact answers, i.e. a
  one-dataset version of the paper's accuracy comparison.

The streaming trio exposes the client/server split on files, demonstrating
a sharded multi-server round trip:

* ``repro-cli encode``    -- user side only: privatize a CSV of items into
  one or more report files (``--shards K`` splits the population);
* ``repro-cli aggregate`` -- server side only: fold report files into a
  serialized accumulator state (run once per server shard);
* ``repro-cli merge``     -- combine shard states (exactly, in any order),
  finalize, and answer range/quantile queries.

The ``engine`` subcommands expose the epoch-aware aggregation-service
façade (:class:`repro.engine.Engine`) on files, replacing the ad-hoc
state-file juggling for long-running services (``aggregate`` and
``merge`` remain as thin wrappers over the same façade):

* ``repro-cli engine checkpoint`` -- fold report files into one epoch of a
  ``--store-dir`` epoch store (created on first use, extended thereafter);
* ``repro-cli engine info``       -- inspect a store (spec, epochs,
  per-epoch report counts, aggregates) and optionally export a merged
  window as a classic state file;
* ``repro-cli engine query``      -- reopen a store and answer
  range/quantile/rectangle queries over a window of epochs
  (``--window all``, ``--window last:K``, or ``--window 0,2,5``).

``repro-cli serve`` runs the same machinery over the network
(:mod:`repro.service`): an HTTP ingest gateway in front of shard worker
processes, epoch close on ``POST /close``, durable ``--store-dir``
restore and an optional ``--wal-dir`` ingest log.

``encode`` and ``aggregate`` accept ``-`` for stdin/stdout (``encode
--output -`` emits the service's framed-batch wire format), so the
pipeline composes with shell pipes and ``curl``::

    repro-cli encode --input users.csv --domain-size 1024 --epsilon 1.1 \
        --method hh --output - | curl --data-binary @- \
        -H 'Idempotency-Key: users-0' http://HOST:PORT/ingest

Every registry handle (``flat``, ``hh``, ``haar`` / ``wavelet``,
``grid2d`` / ``grid``) round-trips through the sharded workflow.  The 2-D
grid encodes two CSV columns (``--column`` / ``--column-y``, sized by
``--domain-size`` / ``--domain-size-y``) and answers axis-aligned
``--rectangles`` at merge time instead of scalar ranges.

Query flags go through :mod:`repro.queries.frontend`, the grammar and
batch answerer the service's ``GET /query`` uses too; a malformed or
unanswerable query exits with its message.

Example::

    repro-cli generate --distribution cauchy --domain-size 1024 \
        --n-users 100000 --output users.csv
    repro-cli run --input users.csv --domain-size 1024 --epsilon 1.1 \
        --method hh --branching 4 --ranges 0:127,128:511 --quantiles 0.5,0.9

    # The same computation, sharded across two aggregation servers:
    repro-cli encode --input users.csv --domain-size 1024 --epsilon 1.1 \
        --method hh --branching 4 --shards 2 --output reports.bin
    repro-cli aggregate --reports reports.bin.0 --output shard0.state
    repro-cli aggregate --reports reports.bin.1 --output shard1.state
    repro-cli merge --states shard0.state shard1.state \
        --ranges 0:127,128:511 --quantiles 0.5,0.9
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    PROTOCOL_ALIASES,
    PROTOCOL_REGISTRY,
    RangeQueryProtocol,
    accepted_protocol_kwargs,
    make_protocol,
)
from repro.analysis.metrics import mean_squared_error
from repro.core.exceptions import ProtocolUsageError
from repro.core.rng import ensure_rng
from repro.core.serialization import (
    MAGIC_BATCH,
    SerializationError,
    pack_report_batch,
    unpack_report_batch,
)
from repro.core.postprocess import available_pipelines
from repro.core.session import (
    Report,
    load_report_bytes,
    load_report_file,
    load_server,
    protocol_from_spec,
    save_report_file,
    save_server_file,
    spec_sans_postprocess,
)
from repro.engine import Engine, parse_window, resolve_window
from repro.data.synthetic import DISTRIBUTIONS, make_population
from repro.queries.frontend import (
    answer_queries,
    parse_quantiles,  # noqa: F401 - perfbench/tracing.py patches repro.cli.parse_quantiles
    parse_ranges,
)
from repro.queries.workload import true_answers
from repro.core.types import RangeSpec


def read_item_columns(
    path: str, columns: Sequence[int], has_header: bool = False
) -> np.ndarray:
    """Read integer columns from a CSV file (one row per user) in one pass.

    ``path`` may be ``"-"`` for standard input.  Returns an
    ``(N, len(columns))`` ``int64`` array.
    """

    def collect(handle) -> List[List[int]]:
        rows: List[List[int]] = []
        for row_number, row in enumerate(csv.reader(handle)):
            if has_header and row_number == 0:
                continue
            if not row:
                continue
            try:
                rows.append([int(float(row[column])) for column in columns])
            except (ValueError, IndexError) as exc:
                raise ValueError(
                    f"could not read integers from columns {list(columns)} "
                    f"of line {row_number + 1}"
                ) from exc
        return rows

    if path == "-":
        rows = collect(sys.stdin)
    else:
        with open(path, newline="") as handle:
            rows = collect(handle)
    if not rows:
        raise ValueError(f"no usable rows found in {path}")
    return np.asarray(rows, dtype=np.int64)


def read_items(path: str, column: int = 0, has_header: bool = False) -> np.ndarray:
    """Read one integer column from a CSV file (one row per user)."""
    return read_item_columns(path, [column], has_header=has_header)[:, 0]


def write_items(path: str, items: np.ndarray) -> None:
    """Write one user per line to a CSV file.

    ``items`` may be a 1-D array (one value per user) or an ``(N, 2)``
    array of coordinate pairs (one ``x,y`` row per user, as the grid2d
    method consumes).
    """
    items = np.asarray(items)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for value in items:
            writer.writerow([int(entry) for entry in np.atleast_1d(value)])


def _check_domain_bounds(items: np.ndarray, domain_size: int) -> None:
    if items.max() >= domain_size or items.min() < 0:
        raise SystemExit(
            f"input values fall outside [0, {domain_size}); "
            "pass the correct --domain-size"
        )


#: Every handle :func:`repro.make_protocol` accepts, aliases included, so
#: the CLI listing can never drift out of sync with the registry.
PROTOCOL_CHOICES = sorted(set(PROTOCOL_REGISTRY) | set(PROTOCOL_ALIASES))
#: Handles usable by the 1-D ``run`` / ``compare`` commands: exactly the
#: registry entries implementing the scalar-range protocol interface
#: (the grid answers rectangles, not ranges), plus their aliases.
RANGE_PROTOCOL_CHOICES = sorted(
    name
    for name in PROTOCOL_CHOICES
    if issubclass(
        PROTOCOL_REGISTRY[PROTOCOL_ALIASES.get(name, name)], RangeQueryProtocol
    )
)


def _build_protocol(args: argparse.Namespace):
    """Build the selected protocol, forwarding only the kwargs it accepts.

    Driven by :func:`repro.accepted_protocol_kwargs` rather than a
    per-family dispatch, so a newly registered family picks up the
    matching CLI flags (``--branching``, ``--oracle``, ...) automatically.
    """
    method = PROTOCOL_ALIASES.get(args.method, args.method)
    candidates = {
        "branching": getattr(args, "branching", None),
        "oracle": getattr(args, "oracle", None),
        "consistency": (
            not args.no_consistency if hasattr(args, "no_consistency") else None
        ),
        "domain_size_y": _domain_size_y(args),
        "postprocess": getattr(args, "postprocess", None),
    }
    accepted = accepted_protocol_kwargs(PROTOCOL_REGISTRY[method])
    kwargs = {
        name: value
        for name, value in candidates.items()
        if name in accepted and value is not None
    }
    try:
        return make_protocol(method, args.domain_size, args.epsilon, **kwargs)
    except ValueError as exc:
        # e.g. an unknown --postprocess token; surface the registry message.
        raise SystemExit(str(exc))


def _domain_size_y(args: argparse.Namespace) -> int:
    """The y-axis size of a grid protocol (square grids by default)."""
    domain_size_y = getattr(args, "domain_size_y", None)
    return args.domain_size if domain_size_y is None else domain_size_y


def _is_grid_method(args: argparse.Namespace) -> bool:
    return PROTOCOL_ALIASES.get(args.method, args.method) == "grid2d"


# --------------------------------------------------------------------- #
# sub-commands
# --------------------------------------------------------------------- #
def command_generate(args: argparse.Namespace) -> int:
    dataset = make_population(
        args.distribution,
        args.domain_size,
        args.n_users,
        rng=ensure_rng(args.seed),
    )
    write_items(args.output, dataset.items)
    print(f"wrote {dataset.n_users} rows to {args.output}")
    return 0


def command_run(args: argparse.Namespace) -> int:
    items = read_items(args.input, column=args.column, has_header=args.has_header)
    _check_domain_bounds(items, args.domain_size)
    protocol = _build_protocol(args)
    estimator = protocol.run(items, rng=ensure_rng(args.seed))
    _write_query_output(_query_output(protocol, estimator, len(items), args), args)
    return 0


def _answer_queries(estimator, args: argparse.Namespace) -> dict:
    """Answer the query flags; a malformed or unanswerable request exits."""
    try:
        return answer_queries(estimator, vars(args))
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _write_query_output(output: dict, args: argparse.Namespace) -> None:
    text = json.dumps(output, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote results to {args.output}")
    else:
        print(text)


def command_encode(args: argparse.Namespace) -> int:
    """Client side of the streaming pipeline: items -> report file(s).

    ``--input -`` reads the CSV from standard input; ``--output -``
    writes one framed report batch (the service's ``POST /ingest``
    payload, ``--shards`` reports as its frames) to standard output, so
    ``encode`` pipes directly into ``aggregate`` or ``curl``.
    """
    if _is_grid_method(args):
        items = read_item_columns(
            args.input, [args.column, args.column_y], has_header=args.has_header
        )
        _check_domain_bounds(items[:, 0], args.domain_size)
        _check_domain_bounds(items[:, 1], _domain_size_y(args))
    else:
        items = read_items(args.input, column=args.column, has_header=args.has_header)
        _check_domain_bounds(items, args.domain_size)
    protocol = _build_protocol(args)
    client = protocol.client()
    rng = ensure_rng(args.seed)
    shards = int(args.shards)
    if shards < 1:
        raise SystemExit("--shards must be at least 1")
    if args.output == "-":
        reports = [
            client.encode_batch(chunk, rng=rng)
            for chunk in np.array_split(items, shards)
        ]
        sys.stdout.buffer.write(pack_report_batch(protocol, reports))
        sys.stdout.buffer.flush()
        print(
            f"encoded {len(items)} users with {protocol.name} into a "
            f"{len(reports)}-frame batch on stdout",
            file=sys.stderr,
        )
        return 0
    paths = []
    for index, chunk in enumerate(np.array_split(items, shards)):
        report = client.encode_batch(chunk, rng=rng)
        path = args.output if shards == 1 else f"{args.output}.{index}"
        save_report_file(path, protocol, report)
        paths.append(path)
    print(
        f"encoded {len(items)} users with {protocol.name} into "
        f"{len(paths)} report file(s): {', '.join(paths)}"
    )
    return 0


def _load_report_source(path: str):
    """Yield ``(protocol, report)`` pairs from one report source.

    ``path`` is a report file from ``encode``, or ``"-"`` for standard
    input -- which additionally accepts a framed report batch (the
    service wire format, as ``encode --output -`` emits), yielding one
    pair per frame.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
        if data.startswith(MAGIC_BATCH):
            header, frames = unpack_report_batch(data)
            spec = header.get("protocol")
            if not isinstance(spec, dict):
                raise SerializationError(
                    "the framed batch on stdin carries no protocol spec"
                )
            protocol = protocol_from_spec(spec)
            for frame in frames:
                yield protocol, Report.from_bytes(frame)
        else:
            yield load_report_bytes(data, source="<stdin>")
    else:
        yield load_report_file(path)


def _ingest_report_files(
    paths: Sequence[str],
    session,
    spec: Optional[dict],
    epoch: Optional[int] = 0,
    postprocess: Optional[str] = None,
) -> Tuple[object, dict, int]:
    """Fold report files into an engine session, validating their specs.

    ``session`` may be ``None``; it is created from the first report's
    protocol, on epoch ``epoch`` (``None`` = the engine's next fresh key).
    ``postprocess`` optionally overrides the pipeline recorded in the
    report files.  Spec compatibility across files ignores the
    ``postprocess`` key (post-processing never touches the accumulated
    statistics, so shards encoded under different pipelines are
    exchangeable; the first file's -- or the override's -- pipeline wins).
    A path of ``"-"`` reads standard input (a report file or a framed
    batch).  Returns ``(session, spec, n_reports_folded)``.
    """
    folded = 0
    for path in paths:
        try:
            pairs = list(_load_report_source(path))
        except (OSError, SerializationError, ValueError) as exc:
            raise SystemExit(f"could not load report file {path}: {exc}")
        for protocol, report in pairs:
            if session is None:
                spec = protocol.spec()
                if postprocess is not None:
                    try:
                        protocol = protocol_from_spec(
                            {**spec, "postprocess": postprocess}
                        )
                    except ValueError as exc:
                        raise SystemExit(str(exc))
                session = Engine.open(protocol).session(epoch=epoch)
            elif spec_sans_postprocess(protocol.spec()) != spec_sans_postprocess(spec):
                raise SystemExit(
                    f"{path} was encoded with a different protocol configuration "
                    f"({protocol.spec()} != {spec})"
                )
            session.ingest(report)
            folded += report.n_users
    return session, spec, folded


def command_aggregate(args: argparse.Namespace) -> int:
    """Server side of the streaming pipeline: report files -> shard state.

    Thin wrapper over the engine façade: one single-epoch engine ingests
    every report file and its shard state is written in the classic v1
    layout, so downstream ``merge`` / ``engine checkpoint`` runs (and
    pre-engine tooling) consume it unchanged.  ``--reports -`` reads a
    report file or framed batch from standard input; ``--output -``
    writes the state bytes to standard output, so the whole pipeline
    composes with shell pipes.
    """
    session, _, _ = _ingest_report_files(
        args.reports, None, None, postprocess=getattr(args, "postprocess", None)
    )
    if session is None:
        raise SystemExit("no report files given")
    # Classic layout: strip the engine's epoch annotation so the output
    # stays byte-identical to a plain single-server aggregation.
    session.server.state.meta.clear()
    if args.output == "-":
        sys.stdout.buffer.write(session.server.to_bytes())
        sys.stdout.buffer.flush()
        destination, status_stream = "stdout", sys.stderr
    else:
        save_server_file(args.output, session.server)
        destination, status_stream = args.output, sys.stdout
    print(
        f"aggregated {session.n_reports} reports from {len(args.reports)} "
        f"file(s) into {destination}",
        file=status_stream,
    )
    return 0


def _engine_from_state_files(paths: Sequence[str]) -> Engine:
    """An engine holding one epoch per v1 state file, in file order."""
    engine = None
    for path in paths:
        try:
            with open(path, "rb") as handle:
                server = load_server(handle.read())
            if engine is None:
                engine = Engine.open(server.protocol)
            engine.adopt_state(server.state)
        except (OSError, SerializationError) as exc:
            raise SystemExit(f"could not load state file {path}: {exc}")
        except ProtocolUsageError as exc:
            raise SystemExit(str(exc))
    if engine is None:
        raise SystemExit("no state files given")
    return engine


def _export_classic_state(path: str, state) -> None:
    """Write a merged window as a classic (pre-engine, meta-free) state file.

    Stripping the window annotation keeps the bytes identical to what a
    plain single-server aggregation of the same reports would produce.
    """
    state.meta = {}
    with open(path, "wb") as handle:
        handle.write(state.to_bytes())


def _query_output(protocol, estimator, n_users: int, args: argparse.Namespace) -> dict:
    """The common JSON document of the query commands, answers included."""
    if hasattr(protocol, "domain_size"):
        domain_size = protocol.domain_size
    else:  # 2-D grid: one size per axis
        domain_size = [protocol.domain_size_x, protocol.domain_size_y]
    return {
        "method": protocol.name,
        "epsilon": protocol.epsilon,
        "domain_size": domain_size,
        "n_users": int(n_users),
        **_answer_queries(estimator, args),
    }


def command_merge(args: argparse.Namespace) -> int:
    """Combine shard states exactly, finalize, and answer queries.

    Thin wrapper over the engine façade: each state file becomes one
    epoch and the answer is the ``window="all"`` estimator -- the lazily
    merged window reproduces the old in-place merge bit-for-bit.
    """
    engine = _engine_from_state_files(args.states)
    if args.output_state:
        merged = engine.window_state()
        _export_classic_state(args.output_state, merged)
        print(f"wrote merged state ({merged.n_reports} reports) to {args.output_state}")

    try:
        _, estimator, n_users = engine.query()
    except ProtocolUsageError as exc:
        raise SystemExit(str(exc))
    output = _query_output(engine.protocol, estimator, n_users, args)
    output["n_shards"] = len(args.states)
    _write_query_output(output, args)
    return 0


# --------------------------------------------------------------------- #
# engine subcommands: the epoch-aware aggregation-service façade on files
# --------------------------------------------------------------------- #
def _restore_engine(store_dir: str) -> Engine:
    """Reopen an engine from its epoch store directory."""
    try:
        return Engine.restore(store_dir)
    except (OSError, SerializationError) as exc:
        raise SystemExit(f"could not open epoch store {store_dir}: {exc}")


def _parse_window_arg(args: argparse.Namespace):
    try:
        return parse_window(getattr(args, "window", "all"))
    except (ValueError, ProtocolUsageError) as exc:
        raise SystemExit(str(exc))


def command_engine_checkpoint(args: argparse.Namespace) -> int:
    """Fold report files into one epoch of a ``--store-dir`` epoch store.

    The store is created on first use and extended on every subsequent
    run; ``--epoch`` selects the epoch (default: the next fresh one), and
    re-using an epoch key appends to that epoch's shard.  The write is
    *incremental*: only the touched epoch's segment is rewritten, and
    every other epoch's segment stays byte-identical on disk.
    """
    store_dir = args.store_dir
    engine = None
    spec = None
    if os.path.isfile(store_dir) or os.path.exists(
        os.path.join(store_dir, "MANIFEST.json")
    ):
        engine = _restore_engine(store_dir)
        spec = engine.spec()
    session = None
    if engine is not None:
        try:
            session = engine.session(epoch=args.epoch)
        except (ProtocolUsageError, SerializationError) as exc:
            raise SystemExit(str(exc))
    session, spec, folded = _ingest_report_files(
        args.reports, session, spec, epoch=args.epoch
    )
    if session is None:
        raise SystemExit("no report files given")
    engine = session.engine
    try:
        if engine.store is None:
            engine.attach_store(store_dir)
        engine.checkpoint()
        engine.seal_epoch(session.epoch)
    except (OSError, SerializationError, ProtocolUsageError) as exc:
        raise SystemExit(f"could not write checkpoint: {exc}")
    print(
        f"epoch {session.epoch}: folded {folded} reports from "
        f"{len(args.reports)} file(s); store {store_dir} now holds "
        f"epochs {list(engine.epochs)} ({engine.n_reports()} reports total)"
    )
    return 0


def command_engine_info(args: argparse.Namespace) -> int:
    """Inspect an epoch store; optionally export a window as a state file.

    Reports per-epoch report counts, on-disk segment sizes and
    seal/dirty status, without materializing a single sealed epoch.
    """
    engine = _restore_engine(args.store_dir)
    window = _parse_window_arg(args)
    epoch_stats = engine.epoch_stats()
    store = engine.store
    output = {
        "checkpoint": args.store_dir,
        "method": getattr(engine.protocol, "name", type(engine.protocol).__name__),
        "spec": engine.spec(),
        "epochs": list(engine.epochs),
        "epoch_reports": {
            str(epoch): stats["n_reports"] for epoch, stats in epoch_stats.items()
        },
        "epoch_stats": {str(epoch): stats for epoch, stats in epoch_stats.items()},
        "n_users": engine.n_reports(),
        "store": {
            "dir": store.directory,
            "sealed_epochs": list(engine.sealed_epochs),
            "on_disk_bytes": store.total_bytes(),
            "aggregates": store.aggregate_stats(),
        },
    }
    if getattr(args, "aggregates", False):
        # Detailed listing: one row per materialized aggregate block,
        # plus the cover plan the current window would use.
        output["store"]["aggregate_segments"] = store.aggregate_entries()
        sealed = [
            epoch
            for epoch in resolve_window(window, list(engine.epochs))
            if epoch in store
        ]
        output["store"]["window_plan"] = [
            list(node) for node in store.plan_window(sealed)
        ]
    if args.output_state:
        try:
            merged = engine.window_state(window)
        except ProtocolUsageError as exc:
            raise SystemExit(str(exc))
        _export_classic_state(args.output_state, merged)
        output["output_state"] = args.output_state
        output["window_reports"] = int(merged.n_reports)
    print(json.dumps(output, indent=2, sort_keys=True))
    return 0


def command_engine_query(args: argparse.Namespace) -> int:
    """Reopen an epoch store and answer queries over a window of epochs.

    ``--postprocess`` re-finalizes the stored statistics under a
    different pipeline (post-processing never touches the accumulated
    state, so no re-ingestion is needed).  The window is answered
    out-of-core: only the selected epochs' segments are read (via
    pushdown when available), bit-identically to the in-RAM merge path.
    """
    engine = _restore_engine(args.store_dir)
    window = _parse_window_arg(args)
    postprocess = getattr(args, "postprocess", None)
    if postprocess is not None:
        try:
            engine = engine.with_postprocess(postprocess)
        except (ValueError, ProtocolUsageError) as exc:
            raise SystemExit(str(exc))
    try:
        selected, estimator, n_users = engine.query(window)
    except (ProtocolUsageError, SerializationError) as exc:
        raise SystemExit(str(exc))
    output = _query_output(engine.protocol, estimator, n_users, args)
    output["window"] = getattr(args, "window", "all")
    output["epochs"] = selected
    if postprocess is not None:
        output["postprocess"] = postprocess
    _write_query_output(output, args)
    return 0


def command_compare(args: argparse.Namespace) -> int:
    items = read_items(args.input, column=args.column, has_header=args.has_header)
    counts = np.bincount(items, minlength=args.domain_size).astype(float)
    frequencies = counts / counts.sum()
    ranges = parse_ranges(args.ranges)
    if not ranges:
        raise SystemExit("--ranges is required for compare")
    specs = [RangeSpec(left, right) for left, right in ranges]
    truths = true_answers(specs, frequencies)

    results = {}
    rng = ensure_rng(args.seed)
    for method in args.methods.split(","):
        method = PROTOCOL_ALIASES.get(method.strip(), method.strip())
        if method not in RANGE_PROTOCOL_CHOICES:
            raise SystemExit(
                f"--methods entry {method!r} is not a 1-D range protocol; "
                f"expected one of {RANGE_PROTOCOL_CHOICES}"
            )
        kwargs = {}
        if method == "hh":
            kwargs.update(branching=args.branching, oracle=args.oracle)
        elif method == "flat":
            kwargs.update(oracle=args.oracle)
        protocol = make_protocol(method, args.domain_size, args.epsilon, **kwargs)
        estimator = protocol.run(items, rng=rng)
        estimates = estimator.range_queries(specs)
        results[protocol.name] = mean_squared_error(estimates, truths)

    print(json.dumps(results, indent=2, sort_keys=True))
    best = min(results, key=results.get)
    print(f"best method on this workload: {best}", file=sys.stderr)
    return 0


# --------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------- #
def command_serve(args: argparse.Namespace) -> int:
    """Run the network-facing aggregation service (gateway + workers).

    With ``--store-dir`` naming an existing epoch store the service
    resumes from it (ignoring the protocol flags -- the store's manifest
    *is* the configuration); otherwise a fresh engine is built from
    ``--method``/``--domain-size``/``--epsilon``, and the store, if
    requested, is created on the first epoch close.  ``--wal-dir`` needs
    ``--store-dir``, and a WAL segment recovery cannot read refuses the
    start: both exit 1 with a message.  SIGINT/SIGTERM trigger a graceful
    shutdown: the in-progress epoch is closed and sealed, and the workers
    quit cleanly.
    """
    import asyncio
    import signal

    # Deferred import: the service layer is optional machinery the rest
    # of the CLI never pays for.
    from repro.service import AggregationService

    options = {
        "num_workers": args.workers,
        "host": args.host,
        "port": args.port,
        "wal_dir": args.wal_dir,
        "wal_sync": args.wal_sync,
        "request_timeout": args.request_timeout,
        "max_inflight": args.max_inflight,
    }
    store_dir = args.store_dir
    try:
        if store_dir and os.path.exists(os.path.join(store_dir, "MANIFEST.json")):
            service = AggregationService.from_store(store_dir, **options)
            origin = f"restored from store {store_dir}"
        else:
            if args.domain_size is None:
                raise SystemExit(
                    "--domain-size is required unless --store-dir names an "
                    "existing epoch store to restore"
                )
            service = AggregationService(
                _build_protocol(args), store_dir=store_dir, **options
            )
            origin = "fresh engine"
    except ValueError as exc:  # includes SerializationError
        raise SystemExit(str(exc))

    async def run() -> None:
        await service.start()
        epochs = list(service.engine.epochs)
        wal = f"wal={args.wal_dir}" if args.wal_dir else "wal=off"
        print(
            f"serving {service.spec.get('name')} on {service.url} "
            f"({args.workers} workers, {origin}, {wal}, epochs={epochs}); "
            "Ctrl-C for graceful shutdown",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("shutting down: closing and sealing the open epoch", flush=True)
        await service.stop(flush=True)
        print(f"stopped; engine holds epochs {list(service.engine.epochs)}", flush=True)

    try:
        asyncio.run(run())
    except SerializationError as exc:  # a WAL segment recovery cannot read
        raise SystemExit(str(exc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Run LDP range-query protocols on CSV data",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="write a synthetic population CSV")
    generate.add_argument("--distribution", choices=sorted(DISTRIBUTIONS), default="cauchy")
    generate.add_argument("--domain-size", type=int, required=True)
    generate.add_argument("--n-users", type=int, required=True)
    generate.add_argument("--output", required=True)
    generate.add_argument("--seed", type=int, default=None)
    generate.set_defaults(func=command_generate)

    def add_postprocess_argument(sub):
        sub.add_argument(
            "--postprocess",
            default=None,
            help=(
                "post-processing pipeline applied at estimate assembly: "
                f"'+'-combinations of {', '.join(available_pipelines())} "
                "(default: the protocol's own default)"
            ),
        )

    def add_common_run_arguments(sub):
        sub.add_argument("--input", required=True, help="CSV file with one user per row")
        sub.add_argument("--column", type=int, default=0)
        sub.add_argument("--has-header", action="store_true")
        sub.add_argument("--domain-size", type=int, required=True)
        sub.add_argument("--epsilon", type=float, default=1.1)
        sub.add_argument("--branching", type=int, default=4)
        sub.add_argument("--oracle", default="oue")
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--ranges", default="", help="comma separated left:right pairs")

    run = subparsers.add_parser("run", help="run one protocol and answer queries")
    add_common_run_arguments(run)
    add_postprocess_argument(run)
    run.add_argument("--method", choices=RANGE_PROTOCOL_CHOICES, default="hh")
    run.add_argument("--no-consistency", action="store_true")
    run.add_argument("--quantiles", default="", help="comma separated values in [0, 1]")
    run.add_argument("--dump-frequencies", dest="frequencies", action="store_true")
    run.add_argument("--output", default=None, help="write JSON here instead of stdout")
    run.set_defaults(func=command_run)

    compare = subparsers.add_parser("compare", help="compare several methods on one file")
    add_common_run_arguments(compare)
    compare.add_argument("--methods", default="flat,hh,haar")
    compare.set_defaults(func=command_compare)

    encode = subparsers.add_parser(
        "encode", help="privatize a CSV of items into report file(s) (client side)"
    )
    encode.add_argument("--input", required=True, help="CSV file with one user per row")
    encode.add_argument("--column", type=int, default=0)
    encode.add_argument(
        "--column-y",
        type=int,
        default=1,
        help="CSV column of the y coordinate (grid2d only)",
    )
    encode.add_argument("--has-header", action="store_true")
    encode.add_argument("--domain-size", type=int, required=True)
    encode.add_argument(
        "--domain-size-y",
        type=int,
        default=None,
        help="y-axis size for grid2d (defaults to --domain-size)",
    )
    encode.add_argument("--epsilon", type=float, default=1.1)
    encode.add_argument("--method", choices=PROTOCOL_CHOICES, default="hh")
    encode.add_argument("--branching", type=int, default=4)
    encode.add_argument("--oracle", default="oue")
    encode.add_argument("--no-consistency", action="store_true")
    add_postprocess_argument(encode)
    encode.add_argument("--seed", type=int, default=None)
    encode.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the population into K report files (suffix .0 .. .K-1)",
    )
    encode.add_argument("--output", required=True, help="report file (or prefix)")
    encode.set_defaults(func=command_encode)

    aggregate = subparsers.add_parser(
        "aggregate",
        help="fold report file(s) into a serialized accumulator state (server side)",
    )
    aggregate.add_argument(
        "--reports", nargs="+", required=True, help="report files from encode"
    )
    aggregate.add_argument("--output", required=True, help="accumulator state file")
    add_postprocess_argument(aggregate)
    aggregate.set_defaults(func=command_aggregate)

    merge = subparsers.add_parser(
        "merge", help="merge shard states exactly and answer queries"
    )
    merge.add_argument(
        "--states", nargs="+", required=True, help="state files from aggregate"
    )
    merge.add_argument("--ranges", default="", help="comma separated left:right pairs")
    merge.add_argument("--quantiles", default="", help="comma separated values in [0, 1]")
    merge.add_argument(
        "--rectangles",
        default="",
        help="comma separated xleft:xright:yleft:yright rectangles (grid2d only)",
    )
    merge.add_argument("--dump-frequencies", dest="frequencies", action="store_true")
    merge.add_argument("--output", default=None, help="write JSON here instead of stdout")
    merge.add_argument(
        "--output-state", default=None, help="also write the merged state here"
    )
    merge.set_defaults(func=command_merge)

    engine = subparsers.add_parser(
        "engine",
        help="epoch-aware aggregation service: epoch store + windowed queries",
    )
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)

    checkpoint = engine_sub.add_parser(
        "checkpoint",
        help="fold report files into one epoch of an epoch store",
    )
    checkpoint.add_argument(
        "--store-dir",
        required=True,
        help=(
            "epoch store directory (created or extended): per-epoch mmap "
            "segments + incremental checkpoints"
        ),
    )
    checkpoint.add_argument(
        "--reports", nargs="+", required=True, help="report files from encode"
    )
    checkpoint.add_argument(
        "--epoch",
        type=int,
        default=None,
        help="epoch key to fold into (default: the next fresh epoch)",
    )
    checkpoint.set_defaults(func=command_engine_checkpoint)

    info = engine_sub.add_parser(
        "info", help="inspect an epoch store (spec, epochs, report counts)"
    )
    info.add_argument(
        "--store-dir", required=True, help="epoch store directory to inspect"
    )
    info.add_argument(
        "--window",
        default="all",
        help="epoch window: all, last:K, or a comma separated key list",
    )
    info.add_argument(
        "--output-state",
        default=None,
        help="export the merged window as a classic state file",
    )
    info.add_argument(
        "--aggregates",
        action="store_true",
        help="list materialized aggregate segments and the window's cover plan",
    )
    info.set_defaults(func=command_engine_info)

    query = engine_sub.add_parser(
        "query", help="answer queries over a window of stored epochs"
    )
    query.add_argument(
        "--store-dir", required=True, help="epoch store directory to query"
    )
    query.add_argument(
        "--window",
        default="all",
        help="epoch window: all, last:K, or a comma separated key list",
    )
    query.add_argument("--ranges", default="", help="comma separated left:right pairs")
    query.add_argument("--quantiles", default="", help="comma separated values in [0, 1]")
    query.add_argument(
        "--rectangles",
        default="",
        help="comma separated xleft:xright:yleft:yright rectangles (grid2d only)",
    )
    query.add_argument("--dump-frequencies", dest="frequencies", action="store_true")
    add_postprocess_argument(query)
    query.add_argument("--output", default=None, help="write JSON here instead of stdout")
    query.set_defaults(func=command_engine_query)

    serve = subparsers.add_parser(
        "serve",
        help="run the aggregation service: HTTP ingest gateway + shard workers",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks an ephemeral port)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="number of shard worker processes"
    )
    serve.add_argument(
        "--store-dir",
        default=None,
        help=(
            "epoch store directory: every closed epoch is sealed into its own "
            "segment (restored if the directory already holds a manifest)"
        ),
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        help=(
            "durable ingest log directory (needs --store-dir): every accepted "
            "batch is logged before its ack, so crashes and restarts are "
            "exactly-once"
        ),
    )
    serve.add_argument(
        "--wal-sync",
        action="store_true",
        help="fsync each WAL append (power-loss safe; much slower)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for a request before closing the connection (408)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="per-worker in-flight batch bound; beyond it ingest gets 429",
    )
    serve.add_argument("--method", choices=PROTOCOL_CHOICES, default="hh")
    serve.add_argument(
        "--domain-size",
        type=int,
        default=None,
        help="domain size (required unless restoring an epoch store)",
    )
    serve.add_argument(
        "--domain-size-y",
        type=int,
        default=None,
        help="y-axis size for grid2d (defaults to --domain-size)",
    )
    serve.add_argument("--epsilon", type=float, default=1.1)
    serve.add_argument("--branching", type=int, default=4)
    serve.add_argument("--oracle", default="oue")
    serve.add_argument("--no-consistency", action="store_true")
    add_postprocess_argument(serve)
    serve.set_defaults(func=command_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # Flush here, so a reader that went away (``| head``) raises below
        # and not in the interpreter's final flush.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point stdout at devnull so that final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
