"""Hostile run parameters get a named one-line error, on every surface.

``RunSpec.from_params`` is the one place field types are checked; a
serve ``create`` surfaces its ``ValueError`` as ``SessionError``, the
CLI as ``error: ...`` and exit 1. None may regress to a bare
``AttributeError``/``TypeError`` or a silently truncated value.
"""

import pytest

from repro.cli import main
from repro.serve.session import Session, SessionError

#: workload -> what the one-line error must name. The first five died
#: with AttributeError / TypeError / silent truncation before PR 16.
HOSTILE = [
    ({"kind": "batch", "faults": [1, 2]}, "'faults' must be a JSON object"),
    ({"kind": "batch", "policy": "drop"}, "'policy' must be a JSON object"),
    ({"kind": "batch", "shape": None}, "'shape' must be"),
    ({"kind": "batch", "seed": None}, "'seed' must be an integer"),
    ({"kind": "batch", "shape": [2.5, 2, 2]}, "'shape' must be"),
    ({"kind": "batch", "batch": True}, "'batch' must be an integer"),
    ({"kind": "batch", "endpoints": "2"}, "'endpoints' must be an integer"),
    ({"kind": "demand", "demand": [1]}, "'demand' must be a JSON object"),
    ({"kind": "demand", "demand": {"rate": "fast"}}, "'rate' must be a number"),
    ({"kind": "demand", "demand": {"epochs": 0}}, "epochs must be >= 1"),
    ({"kind": "demand", "demand": {"generator": "zipf"}},
     "unknown demand generator 'zipf'"),
    ({"kind": "demand", "demand": {"mode": "ajar"}}, "mode must be"),
    ({"kind": "batch", "pattern": "zigzag"}, "unknown pattern 'zigzag'"),
    ({"kind": "batch", "topology": "hypercube"}, "unknown topology 'hypercube'"),
    ({"kind": "batch", "arbitration": "lotto"}, "arbitration must be"),
    ({"kind": "batch", "policy": {"mode": "pray"}}, "policy mode must be"),
    ({"kind": "fuzz"}, "unknown workload kind 'fuzz'"),
    ({"kind": "batch", "cores": 3, "endpoints": 2}, "cores_per_chip must be"),
]


@pytest.mark.parametrize("workload,named", HOSTILE, ids=[n for _, n in HOSTILE])
def test_hostile_workloads_get_a_named_error(workload, named):
    with pytest.raises(ValueError, match=named) as caught:
        Session.create("s", workload)
    assert "\n" not in str(caught.value)
    if "cores_per_chip" not in named:  # raised by generation, past the decoder
        from repro.sim.simulator import RunSpec

        assert isinstance(caught.value, SessionError)
        with pytest.raises(ValueError, match=named):
            RunSpec.from_params(workload)


def test_a_hostile_fault_file_is_a_one_line_cli_error(tmp_path, capsys):
    bad = tmp_path / "faults.json"
    bad.write_text("[1, 2]")
    for command in (["run", "--fault-file"], ["demand", "--fault-file"],
                    ["faults", "run"], ["faults", "validate"]):
        assert main(command + [str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: a fault set is a JSON object")
        assert len(err.splitlines()) == 1
