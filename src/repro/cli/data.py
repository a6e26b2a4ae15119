"""``repro simulate`` / ``display`` / ``benchmark``: datasets and quick looks."""

from __future__ import annotations

import time

import numpy as np

from .common import add_telemetry_flags, flush_telemetry, make_telemetry


def add_dataset_flags(parser) -> None:
    """Registry name + split sizes (``simulate`` and ``store ingest``)."""
    parser.add_argument("--dataset", default="ex3_like", help="registry name")
    parser.add_argument("--train", type=int, default=8)
    parser.add_argument("--val", type=int, default=2)
    parser.add_argument("--test", type=int, default=2)


def add_parsers(sub) -> None:
    p_sim = sub.add_parser("simulate", help="generate a dataset and cache it as npz")
    add_dataset_flags(p_sim)
    p_sim.add_argument("--out", default=".repro_data", help="cache directory")

    p_disp = sub.add_parser("display", help="render an event as an SVG file")
    p_disp.add_argument("--particles", type=int, default=20)
    p_disp.add_argument("--seed", type=int, default=0)
    p_disp.add_argument("--tracks", action="store_true", help="overlay truth tracks")
    p_disp.add_argument("--out", default="event.svg")

    p_bench = sub.add_parser("benchmark", help="quick bulk-vs-sequential sampling timing")
    p_bench.add_argument("--dataset", default="ex3_like")
    p_bench.add_argument("--batch-size", type=int, default=128)
    p_bench.add_argument("--depth", type=int, default=3)
    p_bench.add_argument("--fanout", type=int, default=6)
    p_bench.add_argument("--k", type=int, default=8)
    add_telemetry_flags(p_bench)


def cmd_simulate(args) -> int:
    from ..detector import dataset_config, make_dataset, summarize

    cfg = dataset_config(args.dataset).with_sizes(args.train, args.val, args.test)
    dataset = make_dataset(cfg, cache_dir=args.out)
    print(summarize(dataset))
    print(f"cached under {args.out}/")
    return 0


def cmd_display(args) -> int:
    from ..detector import DetectorGeometry, EventSimulator, event_display_svg

    geometry = DetectorGeometry.barrel_only()
    sim = EventSimulator(geometry, particles_per_event=args.particles)
    event = sim.generate(np.random.default_rng(args.seed))
    candidates = None
    if args.tracks:
        candidates = [
            np.flatnonzero(event.particle_ids == pid)
            for pid in np.unique(event.particle_ids[event.particle_ids > 0])
        ]
    svg = event_display_svg(event, geometry, candidates=candidates)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.out} ({event.num_hits} hits)")
    return 0


def cmd_benchmark(args) -> int:
    from ..detector import dataset_config, make_dataset
    from ..obs import use_telemetry
    from ..sampling import BulkShadowSampler, ShadowSampler

    graph = make_dataset(dataset_config(args.dataset).with_sizes(1, 0, 0)).train[0]
    graph.to_csr(symmetric=True)
    rng = np.random.default_rng(0)
    size = min(args.batch_size, graph.num_nodes // 2)
    batches = [
        rng.choice(graph.num_nodes, size=size, replace=False) for _ in range(args.k)
    ]
    seq = ShadowSampler(args.depth, args.fanout)
    bulk = BulkShadowSampler(args.depth, args.fanout)
    telemetry = make_telemetry(args, seed=0)
    with use_telemetry(telemetry):
        t0 = time.perf_counter()
        for b in batches:
            seq.sample(graph, b, rng)
        t_seq = (time.perf_counter() - t0) / args.k
        t0 = time.perf_counter()
        bulk.sample_bulk(graph, batches, rng)
        t_bulk = (time.perf_counter() - t0) / args.k
    if telemetry is not None:
        telemetry.metrics.gauge("bench.seq_ms_per_batch").set(1e3 * t_seq)
        telemetry.metrics.gauge("bench.bulk_ms_per_batch").set(1e3 * t_bulk)
        telemetry.metrics.gauge("bench.speedup").set(t_seq / t_bulk)
    print(f"graph: {graph.num_nodes} vertices / {graph.num_edges} edges")
    print(f"sequential ShaDow: {1e3 * t_seq:8.2f} ms/batch")
    print(f"bulk ShaDow (k={args.k}): {1e3 * t_bulk:6.2f} ms/batch  ({t_seq / t_bulk:.2f}x)")
    flush_telemetry(telemetry, args)
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "display": cmd_display,
    "benchmark": cmd_benchmark,
}
