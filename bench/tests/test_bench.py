"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _inputs(name, seed, n=12):
    runner = run._runner(name)
    try:
        return run._digest(runner.generate(seed, n))
    finally:
        if isinstance(runner, run.Cli):
            runner.close()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_input_digest_follows_the_seed(name):
    assert _inputs(name, 5) == _inputs(name, 5)
    assert _inputs(name, 5) != _inputs(name, 6)


def _bindings():
    """(holder, attribute) -> object for every coalgkit module attribute and
    class attribute the tracer may touch."""
    out = {}
    for mod in tracing._coalgkit_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(f"{mod.__name__}.{key}", attr)] = member
    return out


def test_wrappers_install_and_uninstall_cleanly():
    import coalgkit.cli  # noqa: F401  (the CLI layer is wrapped too)
    from coalgkit import fields, linalg, structure

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracing.pristine()
        assert hasattr(structure.etale_part, tracing.MARK)
        # a function is wrapped in every module that holds it
        assert hasattr(linalg.minimal_polynomial, tracing.MARK)
        assert structure.minimal_polynomial is linalg.minimal_polynomial
        # an inherited method gets its own wrapper on the subclass
        assert "div" in vars(fields.PrimeField)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracing.pristine()


def test_tracer_records_only_while_active():
    from coalgkit import structure
    from coalgkit.coalgebra import diagonal_coalgebra
    from coalgkit.fields import GF

    tracer = tracing.Tracer()
    tracer.install()
    try:
        structure.etale_part(diagonal_coalgebra(2, GF(3)))
        assert not tracer.span_name and not tracer.counts
        tracer.active = True
        structure.etale_part(diagonal_coalgebra(2, GF(3)))
        tracer.active = False
    finally:
        tracer.uninstall()
    per_name, counts = tracing.summary([tracer.spans()])
    assert per_name["structure.etale_part"][0] == 1
    assert per_name["structure.local_decomposition"][0] == 1
    assert counts["fields.ops.fp"] > 0
    assert all(self_s >= 0 for _, self_s in per_name.values())


def test_names_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert set(json.loads((BENCH / "reference.json").read_text())["digests"]) == set(run.WORKLOADS)


def _main(capsys, *args):
    code = run.main(list(args))
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.fixture
def small(monkeypatch):
    """Ten ops per workload, eight per traced pass, one set-up of each kind."""
    monkeypatch.setattr(run, "MIN_OPS", 10)
    monkeypatch.setattr(run, "TRACE_OPS", 8)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_of_every_workload(small, capsys, name):
    code, out, result = _main(capsys, "--workload", name, "--seed", "3", "--seconds", "0.01")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 10
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac=0.0000 (0/10)" in out.split(name, 1)[1].splitlines()[0]


def test_traced_run_prints_every_per_layer_metric(small, capsys):
    code, _, result = _main(capsys, "--workload", "day-convolution", "--seed", "3", "--trace", "1")
    assert code == 0
    assert set(result["metrics"]) == {m["name"] for m in _spec()["per_layer"]}
    assert result["metrics"]["day.day_convolve.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert tracing.pristine()
