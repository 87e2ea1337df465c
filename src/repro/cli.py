"""Command-line interface (``repro-tpn`` / ``python -m repro``).

Subcommands mirror the analysis pipeline of the paper:

* ``models`` — list the bundled protocol/workload models,
* ``analyze`` — end-to-end performance analysis (throughput, cycle time,
  utilizations) of a bundled model or a JSON net file,
* ``reachability`` — build and print the timed reachability graph
  (optionally the full Figure-4b style state table),
* ``untimed`` — build the untimed reachability graph and report boundedness
  and deadlock facts; ``--engine batched`` runs the numpy level-batched
  kernel, and ``--stats`` prints the frontier-core build statistics,
* ``decision`` — print the decision-graph edges (Figure-5 style), including
  the folded committed-cycle rows of the generalized collapse (``--no-fold``
  recovers the strict paper-shaped collapse and its rejection diagnosis),
* ``performance`` — the full performance path for cyclic protocols: folded
  committed cycles, terminal classes with settling probabilities, and the
  closed-form cycle time / throughput / utilization table (this is the path
  that answers lossless window models, which the strict collapse rejects),
* ``query`` — early-terminating reachability queries (``--reachable``,
  ``--bound``, ``--deadlock``) that stop at the first witness in BFS order
  and print a replayable firing path instead of building the full graph;
  ``--store disk --spill-threshold N`` spills the exploration to disk and
  ``--stats`` reports states explored, spill bytes and witness depth,
* ``resume`` — complete an interrupted build from its checkpoint directory,
  bit-identically to an uninterrupted run (with ``--deadline`` or
  ``--checkpoint-every`` it re-checkpoints into that same directory),
* ``simulate`` — run the discrete-event simulator and compare against the
  analytic throughput,
* ``export`` — write a model as JSON, PNML or Graphviz DOT,
* ``cache`` — inspect (``stats``) or empty (``clear``) a content-addressed
  artifact cache directory,
* ``paper`` — regenerate the paper's headline numbers (Figures 4, 5 and the
  throughput expression) in one shot.

The graph-building subcommands (``analyze``, ``reachability``, ``untimed``,
``decision``, ``performance``) accept ``--cache-dir DIR``: analysis
artifacts are then stored in a content-addressed cache keyed on the net's
fingerprint (:mod:`repro.petri.fingerprint`), so repeated runs on an
unchanged model rehydrate the cached graphs — bit-identically — instead of
re-exploring.

``untimed`` and ``query`` additionally accept the robust-execution trio
``--deadline SECONDS`` / ``--checkpoint-every N`` / ``--checkpoint-dir DIR``:
an expired or Ctrl-C'd build stops at the next state boundary, writes a
final checkpoint and exits with status 2, printing the ``resume`` invocation
that completes it.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Sequence

from .engine import ENGINES, SCALAR_ENGINES
from .exceptions import BuildInterruptedError, PerformanceError, UnboundedNetError
from .performance import PerformanceAnalysis
from .petri import reachability_graph as untimed_reachability_graph
from .petri.io import jsonio, pnml
from .petri.io.dot import net_to_dot
from .protocols import (
    PAPER_THROUGHPUT,
    model_catalog,
    simple_protocol_net,
    simple_protocol_symbolic,
)
from .reachability import decision_graph, timed_reachability_graph
from .simulation import simulate
from .viz import (
    format_decision_edges,
    format_folded_cycles,
    format_kv,
    format_table,
    reachability_to_dot,
)


def _load_model(arguments) -> "TimedPetriNet":  # noqa: F821 - forward name for docs
    if arguments.file:
        return jsonio.load(arguments.file)
    catalog = model_catalog()
    if arguments.model not in catalog:
        raise SystemExit(
            f"unknown model {arguments.model!r}; available: {', '.join(sorted(catalog))}"
        )
    return catalog[arguments.model]()


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        default="simple-protocol",
        help="name of a bundled model (see the 'models' subcommand)",
    )
    parser.add_argument("--file", help="path to a net description in the library's JSON format")


def _add_engine_arguments(
    parser: argparse.ArgumentParser,
    *,
    engines: Sequence[str],
    engine_help: str,
    max_states_help: str,
) -> None:
    """The shared ``--engine`` / ``--max-states`` options.

    Every graph-building subcommand takes the same backend-selection pair;
    ``engines`` restricts the accepted values to what the builder supports
    (e.g. the timed builders reject the batched kernel).
    """
    parser.add_argument(
        "--engine",
        choices=tuple(engines),
        default="compiled",
        help=engine_help,
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=100_000,
        help=max_states_help,
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared disk-spill options of the store-capable subcommands."""
    parser.add_argument(
        "--store",
        choices=("disk",),
        default=None,
        help="spill the exploration's working set to a disk-backed state "
        "store once it crosses --spill-threshold interned states",
    )
    parser.add_argument(
        "--spill-threshold",
        type=int,
        default=None,
        help="interned-state count above which --store disk moves to disk "
        "(default: the store's built-in threshold; 0 spills immediately)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="spool directory for --store disk (default: a self-cleaning "
        "temporary directory; an explicit path is kept for reopening)",
    )


def _resolve_store_arguments(arguments):
    """Build the ``(store, owned)`` pair the builders expect from the CLI
    flags; ``--spill-threshold``/``--store-dir`` without ``--store disk``
    are rejected rather than silently ignored."""
    from .engine.store import DiskStateStore

    if arguments.store is None:
        if arguments.spill_threshold is not None or arguments.store_dir is not None:
            raise SystemExit("--spill-threshold/--store-dir require --store disk")
        return None, False
    kwargs = {}
    if arguments.spill_threshold is not None:
        kwargs["spill_threshold"] = arguments.spill_threshold
    return DiskStateStore(arguments.store_dir, **kwargs), True


def _add_control_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared robust-execution options (deadline, periodic checkpoints)."""
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds; an expired build stops at the "
        "next state boundary (writing a checkpoint when --checkpoint-dir "
        "is set) and exits with status 2",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="write a durable checkpoint every N expanded states "
        "(requires --checkpoint-dir)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint directory (store spool + manifest); an interrupted "
        "build leaves a checkpoint here that the 'resume' subcommand "
        "completes bit-identically",
    )


def _resolve_control(arguments):
    """Build the :class:`~repro.engine.runtime.RunControl` the CLI flags ask
    for, or ``None`` when no robust-execution flag was given."""
    from .engine import RunControl

    if arguments.checkpoint_every is not None and arguments.checkpoint_dir is None:
        raise SystemExit("--checkpoint-every requires --checkpoint-dir")
    if (
        arguments.deadline is None
        and arguments.checkpoint_every is None
        and arguments.checkpoint_dir is None
    ):
        return None
    try:
        return RunControl(
            deadline=arguments.deadline,
            checkpoint_every=arguments.checkpoint_every,
            checkpoint_dir=arguments.checkpoint_dir,
        )
    except ValueError as error:
        raise SystemExit(str(error))


def _exit_interrupted(error: BuildInterruptedError) -> int:
    """Report an interrupted build and how to continue it (exit status 2)."""
    print(f"interrupted: {error}")
    if error.checkpoint is not None:
        print(f"resume with: repro-tpn resume {error.checkpoint.path}")
    return 2


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed artifact cache directory; repeated runs on an "
        "unchanged model reload cached graphs instead of rebuilding "
        "(inspect with the 'cache' subcommand)",
    )


def _open_session(arguments):
    """An :class:`~repro.analysis.AnalysisSession` when ``--cache-dir`` was
    given, else ``None`` (the subcommand then calls the builders directly)."""
    if getattr(arguments, "cache_dir", None) is None:
        return None
    from .analysis import AnalysisSession

    return AnalysisSession(cache_dir=arguments.cache_dir)


def _print_cache_summary(session) -> None:
    parts = []
    for stage, counts in session.stage_outcomes.items():
        for tier, count in sorted(counts.items()):
            parts.append(f"{stage}: {tier}" + (f" x{count}" if count > 1 else ""))
    print("cache: " + ("; ".join(parts) if parts else "unused"))


def _command_models(_arguments) -> int:
    for name, constructor in sorted(model_catalog().items()):
        net = constructor()
        print(f"{name}: {len(net.places)} places, {len(net.transitions)} transitions")
    return 0


def _command_analyze(arguments) -> int:
    net = _load_model(arguments)
    session = _open_session(arguments)
    try:
        # decision_graph() pre-checks collapse support and raises with the
        # supports_decision_collapse() diagnosis; catching it here avoids
        # building the reachability graph twice just to pre-check.
        if session is not None:
            analysis = session.performance(net)
        else:
            analysis = PerformanceAnalysis(net)
    except PerformanceError as error:
        print(net.summary())
        print()
        print(f"cannot analyze: {error}")
        return 1
    finally:
        if session is not None:
            session.close()
    print(net.summary())
    if session is not None:
        _print_cache_summary(session)
    print()
    print(f"timed reachability graph: {analysis.reachability.state_count} states, "
          f"{analysis.reachability.edge_count} edges, "
          f"{len(analysis.reachability.decision_nodes())} decision nodes")
    print(f"decision graph: {analysis.decision.edge_count} edges")
    print()
    rows = []
    transitions = [arguments.transition] if arguments.transition else list(net.transition_order)
    for name in transitions:
        throughput = analysis.throughput(name)
        utilization = analysis.utilization(name)
        rows.append((name, f"{float(throughput.value):.6g}", f"{float(utilization.value):.6g}"))
    print(format_table(("transition", "throughput [1/ms]", "utilization"), rows, align_right=False))
    print()
    print(f"cycle time: {float(analysis.cycle_time().value):.6g} ms")
    return 0


def _command_reachability(arguments) -> int:
    net = _load_model(arguments)
    session = _open_session(arguments)
    try:
        if session is not None:
            graph = session.timed_graph(
                net,
                max_states=arguments.max_states,
                engine=arguments.engine,
            )
        else:
            graph = timed_reachability_graph(
                net,
                max_states=arguments.max_states,
                engine=arguments.engine,
            )
    except ValueError as error:
        # e.g. a symbolic net file; argparse already guaranteed the engine
        # name, so surface the builder's message cleanly.
        raise SystemExit(str(error))
    except UnboundedNetError as error:
        print(f"cannot enumerate: {error}")
        return 1
    finally:
        if session is not None:
            session.close()
    print(graph)
    if session is not None:
        _print_cache_summary(session)
    if arguments.table:
        print(format_table(graph.state_table_header(), graph.state_table(), align_right=False))
    if arguments.dot:
        Path(arguments.dot).write_text(reachability_to_dot(graph), encoding="utf-8")
        print(f"DOT written to {arguments.dot}")
    return 0


def _command_untimed(arguments) -> int:
    from .engine import cancel_on_sigint

    net = _load_model(arguments)
    control = _resolve_control(arguments)
    store, owned = _resolve_store_arguments(arguments)
    session = _open_session(arguments)
    if control is not None and session is not None:
        raise SystemExit(
            "--deadline/--checkpoint-* cannot be combined with --cache-dir "
            "(a partial build is not a cacheable artifact)"
        )
    try:
        if session is not None:
            graph = session.untimed_graph(
                net,
                max_states=arguments.max_states,
                engine=arguments.engine,
                store=store,
            )
        elif control is not None:
            # Ctrl-C becomes a cooperative cancellation: the build stops at
            # the next state boundary and writes its final checkpoint.
            with cancel_on_sigint(control):
                graph = untimed_reachability_graph(
                    net,
                    max_states=arguments.max_states,
                    engine=arguments.engine,
                    store=store,
                    control=control,
                )
        else:
            graph = untimed_reachability_graph(
                net,
                max_states=arguments.max_states,
                engine=arguments.engine,
                store=store,
            )
    except ValueError as error:
        # e.g. a store on a non-frontier engine; argparse already
        # guaranteed the engine name, so surface the builder's message
        # cleanly.
        raise SystemExit(str(error))
    except UnboundedNetError as error:
        print(f"cannot enumerate: {error}")
        return 1
    except BuildInterruptedError as error:
        return _exit_interrupted(error)
    finally:
        if owned:
            store.close()
        if session is not None:
            session.close()
    print(graph)
    if session is not None:
        _print_cache_summary(session)
    rows = [
        ("engine", arguments.engine),
        ("markings", graph.state_count),
        ("edges", graph.edge_count),
        ("bound (max tokens/place)", graph.bound()),
        ("safe (1-bounded)", graph.is_safe()),
        ("deadlock-free", graph.is_deadlock_free()),
        ("dead markings", len(graph.dead_markings())),
    ]
    print(format_kv(rows))
    if arguments.stats:
        stats = graph.build_stats()
        if stats is None:
            print("build stats: not recorded by this engine")
        else:
            print("build stats:")
            print(format_kv([
                ("states/s", f"{stats.states_per_second:.6g}"),
                ("mean batch width", f"{stats.mean_batch_width:.6g}"),
                ("dedup hit rate", f"{stats.dedup_hit_rate:.6g}"),
                ("batches", stats.batches),
                ("spilled states", stats.spilled_states),
                ("spill bytes", stats.spill_bytes),
                ("seconds", f"{stats.seconds:.6g}"),
            ]))
    return 0


def _parse_marking_spec(spec: str) -> dict:
    """Parse a ``place=count,place=count`` target-marking specification."""
    target = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _sep, count = part.partition("=")
        if not _sep:
            raise SystemExit(
                f"invalid marking component {part!r}; expected place=count"
            )
        try:
            target[name.strip()] = int(count.strip())
        except ValueError:
            raise SystemExit(f"invalid token count in {part!r}; expected an integer")
    if not target:
        raise SystemExit("empty target marking; expected place=count[,place=count...]")
    return target


def _print_query_result(result, *, question: str, stats: bool) -> None:
    print(f"query: {question}")
    if result.found:
        print(f"answer: yes (witness at depth {result.witness_depth})")
        print(f"witness: {result.witness}")
        print("path: " + (" -> ".join(result.path) if result.path else "(initial marking)"))
    else:
        print(f"answer: no (exhausted all {result.states_explored} reachable markings)")
    if stats:
        print("query stats:")
        print(format_kv([
            ("states explored", result.states_explored),
            ("edges explored", result.edges_explored),
            ("witness depth", result.witness_depth if result.found else "-"),
            ("spill bytes", result.spill_bytes),
            ("seconds", f"{result.seconds:.6g}"),
        ]))


def _command_query(arguments) -> int:
    from .engine import cancel_on_sigint, query as queries

    net = _load_model(arguments)
    control = _resolve_control(arguments)
    store, owned = _resolve_store_arguments(arguments)
    options = dict(
        max_states=arguments.max_states,
        store=store,
        control=control,
    )
    try:
        with cancel_on_sigint(control) if control is not None else nullcontext():
            if arguments.reachable is not None:
                question = f"marking {arguments.reachable} reachable?"
                result = queries.is_reachable(
                    net, _parse_marking_spec(arguments.reachable), **options
                )
            elif arguments.bound is not None:
                spec = _parse_marking_spec(arguments.bound)
                if len(spec) != 1:
                    raise SystemExit("--bound expects exactly one place=k pair")
                (place, k), = spec.items()
                question = f"can {place} exceed {k} tokens?"
                result = queries.bound_check(net, place, k, **options)
            else:
                question = "deadlock reachable?"
                result = queries.find_deadlock(net, **options)
    except (ValueError, PerformanceError) as error:
        raise SystemExit(str(error))
    except UnboundedNetError as error:
        print(f"query aborted: {error}")
        return 1
    except BuildInterruptedError as error:
        return _exit_interrupted(error)
    finally:
        if owned:
            store.close()
    _print_query_result(result, question=question, stats=arguments.stats)
    return 0


def _command_resume(arguments) -> int:
    from .engine import Checkpoint, cancel_on_sigint, resume
    from .engine.query import QueryResult

    try:
        checkpoint = Checkpoint.load(arguments.checkpoint)
    except Exception as error:
        raise SystemExit(str(error))
    if arguments.checkpoint_dir is None and (
        arguments.deadline is not None or arguments.checkpoint_every is not None
    ):
        # A resumed run re-checkpoints into the directory it came from
        # unless redirected, so each expired resume continues where the
        # previous one stopped instead of redoing the same work.
        arguments.checkpoint_dir = checkpoint.path
    control = _resolve_control(arguments)
    print(
        f"resuming {checkpoint.kind} build from {checkpoint.path} "
        f"(interrupted at cursor {checkpoint.cursor}: {checkpoint.reason})"
    )
    try:
        if control is not None:
            with cancel_on_sigint(control):
                artifact = resume(checkpoint, control=control)
        else:
            artifact = resume(checkpoint)
    except BuildInterruptedError as error:
        return _exit_interrupted(error)
    except UnboundedNetError as error:
        print(f"cannot enumerate: {error}")
        return 1
    if isinstance(artifact, QueryResult):
        spec = checkpoint.manifest["params"].get("spec") or {}
        question = spec.get("query", "query")
        _print_query_result(artifact, question=question, stats=arguments.stats)
        return 0
    if checkpoint.kind in ("gspn", "batched-gspn"):
        markings, edges, vanishing = artifact._explore()
        print(format_kv([
            ("kind", checkpoint.kind),
            ("markings", len(markings)),
            ("edges", len(edges)),
            ("vanishing markings", len(vanishing)),
        ]))
        return 0
    if checkpoint.kind == "coverability":
        count, edges = artifact.node_count, len(artifact.edges)
    else:
        count, edges = artifact.state_count, artifact.edge_count
    print(format_kv([
        ("kind", checkpoint.kind),
        ("states", count),
        ("edges", edges),
    ]))
    return 0


def _command_decision(arguments) -> int:
    net = _load_model(arguments)
    session = _open_session(arguments)
    try:
        if session is not None:
            graph = session.decision(net, fold_cycles=not arguments.no_fold)
        else:
            graph = decision_graph(
                timed_reachability_graph(net), fold_cycles=not arguments.no_fold
            )
    except PerformanceError as error:
        print(f"cannot collapse: {error}")
        return 1
    finally:
        if session is not None:
            session.close()
    print(graph)
    if session is not None:
        _print_cache_summary(session)
    print(format_decision_edges(graph))
    if graph.has_folded_cycles:
        print()
        print("folded committed cycles (resolved by cycle-time analysis):")
        print(format_folded_cycles(graph))
    return 0


def _command_performance(arguments) -> int:
    net = _load_model(arguments)
    session = _open_session(arguments)
    try:
        if session is not None:
            analysis = session.performance(net)
        else:
            analysis = PerformanceAnalysis(net)
    except PerformanceError as error:
        print(f"cannot analyze: {error}")
        return 1
    finally:
        if session is not None:
            session.close()
    decision = analysis.decision
    print(f"timed reachability graph: {analysis.reachability.state_count} states")
    if session is not None:
        _print_cache_summary(session)
    print(decision)
    print()
    print(format_decision_edges(decision))
    if decision.has_folded_cycles:
        print()
        print("folded committed cycles (resolved by cycle-time analysis):")
        print(format_folded_cycles(decision))
    decomposition = analysis.decomposition
    print()
    if decomposition.is_ergodic:
        print("terminal classes: 1 (ergodic)")
    else:
        print(f"terminal classes: {decomposition.class_count} "
              "(measures below are settling-probability-weighted expectations)")
        rows = [
            (f"class {terminal.index + 1}",
             ", ".join(str(anchor + 1) for anchor in terminal.anchors),
             str(terminal.probability))
            for terminal in decomposition.classes
        ]
        print(format_table(("class", "anchor states", "settling probability"), rows, align_right=False))
    print()
    transitions = [arguments.transition] if arguments.transition else list(net.transition_order)
    rows = []
    for name in transitions:
        throughput = analysis.throughput(name)
        utilization = analysis.utilization(name)
        rows.append((name, str(throughput.value), f"{float(throughput.value):.6g}",
                     f"{float(utilization.value):.6g}"))
    print(format_table(
        ("transition", "throughput (exact)", "throughput [1/ms]", "utilization"),
        rows, align_right=False,
    ))
    print()
    cycle_time = analysis.cycle_time()
    print(f"cycle time: {cycle_time.value} ms = {float(cycle_time.value):.6g} ms")
    return 0


def _command_simulate(arguments) -> int:
    net = _load_model(arguments)
    result = simulate(net, arguments.horizon, seed=arguments.seed)
    analysis = PerformanceAnalysis(net)
    rows = []
    for name in net.transition_order:
        simulated = result.throughput(name)
        analytic = float(analysis.throughput(name).value)
        rows.append((name, f"{simulated:.6g}", f"{analytic:.6g}"))
    print(format_table(("transition", "simulated rate", "analytic rate"), rows, align_right=False))
    if result.deadlocked:
        print("warning: the simulation reached a dead marking before the horizon")
    return 0


def _command_export(arguments) -> int:
    net = _load_model(arguments)
    if arguments.format == "json":
        text = jsonio.dumps(net)
    elif arguments.format == "pnml":
        text = pnml.net_to_pnml(net)
    elif arguments.format == "dot":
        text = net_to_dot(net, include_descriptions=True)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown format {arguments.format}")
    if arguments.output:
        Path(arguments.output).write_text(text + "\n", encoding="utf-8")
        print(f"written to {arguments.output}")
    else:
        print(text)
    return 0


def _command_cache(arguments) -> int:
    from .analysis import ArtifactCache

    with ArtifactCache(arguments.cache_dir) as cache:
        if arguments.action == "clear":
            removed = cache.clear()
            print(f"cleared {removed} cached artifact{'s' if removed != 1 else ''}")
            return 0
        stats = cache.stats()
        print(format_kv([
            ("directory", arguments.cache_dir),
            ("entries", stats["disk_entries"]),
            ("bytes", stats["disk_bytes"]),
        ]))
        if stats["disk_stages"]:
            print("by stage:")
            print(format_kv(sorted(stats["disk_stages"].items())))
    return 0


def _command_serve(arguments) -> int:
    from .service import serve

    serve(
        arguments.host,
        arguments.port,
        cache_dir=arguments.cache_dir,
        workers=arguments.jobs,
        default_deadline=arguments.deadline,
        state_dir=arguments.state_dir,
        checkpoint_every=arguments.checkpoint_every,
    )
    return 0


def _command_paper(_arguments) -> int:
    net = simple_protocol_net()
    analysis = PerformanceAnalysis(net)
    print("Figure 4: timed reachability graph of the simple protocol")
    print(format_kv([
        ("states", analysis.reachability.state_count),
        ("decision nodes", len(analysis.reachability.decision_nodes())),
    ]))
    print()
    print("Figure 5: decision graph")
    print(format_table(
        ("edge", "from", "to", "probability", "delay [ms]"),
        analysis.decision.edge_table(),
        align_right=False,
    ))
    print()
    throughput = analysis.throughput("t2")
    print("Section 4: throughput at 5% loss")
    print(format_kv([
        ("measured", f"{float(throughput.value):.6g} messages/ms"),
        ("paper", f"{float(PAPER_THROUGHPUT):.6g} messages/ms"),
        ("exact match", throughput.value == PAPER_THROUGHPUT),
    ]))
    print()
    snet, constraints, _symbols = simple_protocol_symbolic()
    symbolic = PerformanceAnalysis(snet, constraints)
    print("Section 4: symbolic throughput expression")
    print(f"  {symbolic.throughput('t2').value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-tpn",
        description="Timed Petri net performance analysis (Razouk, SIGCOMM 1984 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("models", help="list bundled models").set_defaults(handler=_command_models)

    analyze = subparsers.add_parser("analyze", help="end-to-end performance analysis")
    _add_model_arguments(analyze)
    _add_cache_arguments(analyze)
    analyze.add_argument("--transition", help="only report this transition")
    analyze.set_defaults(handler=_command_analyze)

    reachability = subparsers.add_parser("reachability", help="build the timed reachability graph")
    _add_model_arguments(reachability)
    _add_engine_arguments(
        reachability,
        engines=SCALAR_ENGINES,
        engine_help="construction backend",
        max_states_help="abort if the construction exceeds this many timed states",
    )
    _add_cache_arguments(reachability)
    reachability.add_argument("--table", action="store_true", help="print the full state table")
    reachability.add_argument("--dot", help="write the graph as Graphviz DOT to this path")
    reachability.set_defaults(handler=_command_reachability)

    untimed = subparsers.add_parser(
        "untimed", help="build the untimed reachability graph (boundedness, deadlocks)"
    )
    _add_model_arguments(untimed)
    _add_engine_arguments(
        untimed,
        engines=ENGINES,
        engine_help="construction backend; 'batched' expands whole frontiers with "
        "numpy",
        max_states_help="abort if the enumeration exceeds this many markings",
    )
    _add_store_arguments(untimed)
    _add_control_arguments(untimed)
    _add_cache_arguments(untimed)
    untimed.add_argument(
        "--stats",
        action="store_true",
        help="print frontier-core build statistics (states/s, batch width, dedup rate)",
    )
    untimed.set_defaults(handler=_command_untimed)

    query = subparsers.add_parser(
        "query",
        help="early-terminating reachability queries (stop at the first witness)",
    )
    _add_model_arguments(query)
    question = query.add_mutually_exclusive_group(required=True)
    question.add_argument(
        "--reachable",
        metavar="MARKING",
        help="is this marking reachable? (place=count[,place=count...]; "
        "unnamed places default to 0 tokens)",
    )
    question.add_argument(
        "--bound",
        metavar="PLACE=K",
        help="can this place ever exceed k tokens?",
    )
    question.add_argument(
        "--deadlock",
        action="store_true",
        help="is a dead marking (no transition enabled) reachable?",
    )
    query.add_argument(
        "--max-states",
        type=int,
        default=100_000,
        help="abort if the query explores more than this many markings",
    )
    _add_store_arguments(query)
    _add_control_arguments(query)
    query.add_argument(
        "--stats",
        action="store_true",
        help="print query telemetry (states explored, spill bytes, witness depth)",
    )
    query.set_defaults(handler=_command_query)

    resume_parser = subparsers.add_parser(
        "resume",
        help="complete an interrupted build from its checkpoint directory "
        "(bit-identical to an uninterrupted run)",
    )
    resume_parser.add_argument(
        "checkpoint",
        help="the checkpoint directory an interrupted build left behind",
    )
    _add_control_arguments(resume_parser)
    resume_parser.add_argument(
        "--stats",
        action="store_true",
        help="print query telemetry when resuming a query checkpoint",
    )
    resume_parser.set_defaults(handler=_command_resume)

    decision = subparsers.add_parser("decision", help="print the decision graph")
    _add_model_arguments(decision)
    _add_cache_arguments(decision)
    decision.add_argument(
        "--no-fold",
        action="store_true",
        help="strict paper-shaped collapse: reject committed cycles instead of "
        "folding them by cycle-time analysis",
    )
    decision.set_defaults(handler=_command_decision)

    performance = subparsers.add_parser(
        "performance",
        help="performance expressions for cyclic protocols (folded committed "
        "cycles, terminal classes, closed-form measures)",
    )
    _add_model_arguments(performance)
    _add_cache_arguments(performance)
    performance.add_argument("--transition", help="only report this transition")
    performance.set_defaults(handler=_command_performance)

    simulate_parser = subparsers.add_parser("simulate", help="discrete-event simulation")
    _add_model_arguments(simulate_parser)
    simulate_parser.add_argument("--horizon", type=float, default=100_000.0, help="simulated time (ms)")
    simulate_parser.add_argument("--seed", type=int, default=12345)
    simulate_parser.set_defaults(handler=_command_simulate)

    export = subparsers.add_parser("export", help="export a model to JSON/PNML/DOT")
    _add_model_arguments(export)
    export.add_argument("--format", choices=("json", "pnml", "dot"), default="json")
    export.add_argument("--output", help="output path (defaults to stdout)")
    export.set_defaults(handler=_command_export)

    cache = subparsers.add_parser(
        "cache", help="inspect or clear a content-addressed artifact cache directory"
    )
    cache.add_argument("action", choices=("stats", "clear"), help="what to do")
    cache.add_argument(
        "--cache-dir",
        required=True,
        help="the artifact cache directory (as passed to the analysis subcommands)",
    )
    cache.set_defaults(handler=_command_cache)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the analysis service: an HTTP/JSON job API over a shared "
        "artifact cache (submit nets, poll progress, cancel, resume)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8752,
        help="bind port (0 binds an ephemeral port, printed on startup)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        help="artifact cache directory shared by all jobs (omit for a "
        "memory-only cache that dies with the server)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="concurrent job-runner threads",
    )
    serve_parser.add_argument(
        "--deadline",
        type=float,
        help="default wall-clock budget in seconds for jobs that do not "
        "carry their own (interrupted jobs leave resumable checkpoints)",
    )
    serve_parser.add_argument(
        "--state-dir",
        help="root of the per-job checkpoint directories (defaults to "
        "<cache-dir>/jobs, or a temporary directory without a cache dir)",
    )
    serve_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1000,
        help="periodic-checkpoint cadence in expanded states for "
        "control-capable stages",
    )
    serve_parser.set_defaults(handler=_command_serve)

    subparsers.add_parser(
        "paper", help="regenerate the paper's headline numbers"
    ).set_defaults(handler=_command_paper)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
