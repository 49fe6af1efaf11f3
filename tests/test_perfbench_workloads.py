"""The benchmark drives the program through its CLI: the INI keys, flags,
commands and output files of ``perfbench/workloads.py``'s ``cli-embed256``.
One untraced repetition of it runs here, so that removing anything it uses
fails the suite and not only the benchmark."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_cli_embed256_repetition_has_no_failed_operation(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    workload = workloads.WORKLOADS["cli-embed256"]
    ops = workloads.Ops()
    state = workload.setup(0, tmp_path / "setup")
    workload.run(state, tracing.Tracer(), ops, tmp_path / "rep0", True)
    assert ops.failed == 0, ops.errors
    assert ops.attempted > 0
