"""The benchmark's view of the program: its argv and its span recorder.

`perfbench/` is read from its source and never changed.  Every command line
its three workloads send, in set-up and in each op, goes through
`segfuse.cli.main`, and so through `segfuse.cli._parser()`; its span recorder
is installed and uninstalled once around those ops.  A renamed flag, layer
module or hooked parameter then fails here instead of in a benchmark run.
The workloads run at a few pixels, classes and dims: only the sizes differ
from the benchmark's command lines.
"""
import itertools
import sys

import segfuse
import segfuse.cli

from scenes import bench_module

# Per workload, the shape attributes that shrink it to a test-sized run.
SMALL = {
    "chain_upsample": {"size": 12, "feature": 6, "dim": 8, "classes": 5},
    "sweep_competition": {"size": 8, "dim": 8, "classes": 5},
    "refuse_cached_prior": {"size": 12, "feature": 6, "dim": 8, "classes": 5},
}


def _run(argv):
    assert segfuse.cli.main(argv) == 0, argv


def _functions():
    """Every callable a segfuse module or its classes hold, by owner and name."""
    owners = [module for name, module in list(sys.modules.items())
              if name == "segfuse" or name.startswith("segfuse.")]
    owners += [value for owner in list(owners) for value in vars(owner).values()
               if isinstance(value, type)]
    return {(owner, attr): value for owner in owners
            for attr, value in vars(owner).items() if callable(value)}


def test_bench_commands_parse_and_the_recorder_sees_every_hook(tmp_path,
                                                               monkeypatch):
    monkeypatch.setitem(sys.modules, "checks", bench_module("checks"))
    workloads = bench_module("workloads")
    spans = bench_module("spans")
    assert set(workloads.WORKLOADS) == set(SMALL)
    ops = []
    for name, cls in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        workload = cls(1, str(work))
        for attr, value in SMALL[name].items():
            assert hasattr(workload, attr), (name, attr)
            setattr(workload, attr, value)
        workload.setup(_run)
        # One op per key: repeats send the same command lines.
        ops += {op.key: op for op in itertools.islice(workload.ops(), 32)}.values()
    assert len(ops) == 7

    before = _functions()
    recorder = spans.Recorder()
    scene = segfuse.generate_scene(1, 6, 6, 4, 3, 2, 0.2, 0.4)
    with recorder.installed(), recorder.span("bench.op", op=0):
        for op in ops:
            for argv in op.commands:
                _run(argv)
        # The CLI writes its prior through the kernel, not `build_prior`.
        segfuse.prior.build_prior(scene.features, scene.embeddings, scene.bank,
                                  segfuse.Aggregation("lse"), 6, 6)
    assert _functions() == before
    assert {"grid.bytes_read", "grid.bytes_written", "prior.similarity_flops",
            "competition.settings"} <= set(recorder.counters[0])
    assert {span[0] for span in recorder.spans} >= {
        "cli.main", "grid.load_grid", "prior.build_prior", "competition.run_sweep"}
