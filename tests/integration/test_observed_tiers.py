"""Observed table runs compute on the same tier as plain ones.

A traced or narrated Table 4.1/4.2/4.3 run must render the untraced
table and keep every cell off the object path. Every run reads the
stack pass its column built before the sweep's cells: its ``simulate``
span says ``stack`` and has no children, since no reference is
replayed. The passes record a ``stack.pass`` span each, with the
``warmup`` and ``measure`` windows they play as children.
"""

import pytest

from repro.cli import main
from repro.experiments import table_4_1_spec, table_4_2_spec, table_4_3_spec
from repro.obs import Tracer
from repro.obs import trace as obs_trace
from repro.sim import run_experiment

SPECS = {
    "4.1": lambda: table_4_1_spec(scale=0.05, repetitions=1),
    "4.2": lambda: table_4_2_spec(scale=0.05, repetitions=1),
    "4.3": lambda: table_4_3_spec(scale=0.02, repetitions=1),
}


@pytest.mark.parametrize("table", sorted(SPECS))
def test_traced_table_matches_plain_and_keeps_the_kernels(table):
    tracer = Tracer()
    with obs_trace.activate(tracer):
        traced = run_experiment(SPECS[table]()).to_table().render()
    assert traced == run_experiment(SPECS[table]()).to_table().render()

    simulates = tracer.find("simulate")
    spec = SPECS[table]()
    assert len(simulates) == (len(spec.policies) * len(spec.capacities)
                              * spec.repetitions)
    for span in simulates:
        assert span.args["tier"] == "stack", span.args
        assert tracer.children_of(span.span_id) == [], span.args
    passes = tracer.find("stack.pass")
    assert sorted(span.args["policy"] for span in passes) == sorted(
        column.label for column in spec.policies)
    for span in passes:
        children = sorted(child.name
                          for child in tracer.children_of(span.span_id))
        assert children == ["measure", "warmup"], span.args


def test_default_narration_prints_the_quiet_stdout(capsys):
    argv = ["table4.2", "--scale", "0.05"]
    assert main(argv) == 0
    narrated = capsys.readouterr()
    assert main(argv + ["--quiet"]) == 0
    quiet = capsys.readouterr()
    assert narrated.out == quiet.out
    assert "  .. " in narrated.err and quiet.err == ""
