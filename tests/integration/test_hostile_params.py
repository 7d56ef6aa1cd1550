"""Hostile run parameters get a named one-line error, on every surface.

``RunSpec.from_params`` is the one place field types are checked; a
serve ``create`` surfaces its ``ValueError`` as ``SessionError``, the
CLI as ``error: ...`` and exit 1. None may regress to a bare
``AttributeError``/``TypeError`` or a silently truncated value.
"""

import re

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
    ({"kind": "batch", "faults": {"version": 1, "shape": 5, "faults": []}},
     "fault set 'shape' must be a list of 2 or 3 integers, got 5"),
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


#: fault-file text -> what the one-line error must name. Every spec case
#: was accepted as "valid" or died with IndexError / TypeError before
#: FaultSpec checked its field types.
HOSTILE_FAULT_FILES = [
    ("[1, 2]", "a fault set is a JSON object"),
    ('{"version": 1, "faults": {}}', "'faults' must be a JSON list"),
    ('{"version": 1, "faults": [7]}', "a fault is a JSON object"),
    ('{"version": 1, "faults": [{"chip": [0, 0, 0]}]}',
     "fault kind must be 'link' or 'node', got None"),
    ('{"version": 1, "faults": [{"kind": "node", "chip": [0, 0, 0, 0]}]}',
     "fault 'chip' must be three integers"),
    ('{"version": 1, "faults": [{"kind": "node", "chip": [1, 1]}]}',
     "fault 'chip' must be three integers"),
    ('{"version": 1, "faults": [{"kind": "node", "chip": [0, true, 0]}]}',
     "fault 'chip' must be three integers"),
    ('{"version": 1, "faults": [{"kind": "link", "channel": true}]}',
     "fault 'channel' must be an integer, got True"),
    ('{"version": 1, "faults": [{"kind": "link", "channel": "12"}]}',
     "fault 'channel' must be an integer, got '12'"),
    ('{"version": 1, "faults": [{"kind": "link", "channel": 12, "down": "3"}]}',
     "fault 'down' must be an integer, got '3'"),
    ('{"version": 1, "faults": [{"kind": "link", "channel": 12, "up": 2.5}]}',
     "fault 'up' must be an integer, got 2.5"),
    ('{"version": 1, "shape": 5, "faults": []}',
     "fault set 'shape' must be a list of 2 or 3 integers, got 5"),
    ('{"version": 1, "shape": {"a": 1}, "faults": []}',
     "fault set 'shape' must be a list of 2 or 3 integers, got {'a': 1}"),
    ('{"version": 1, "shape": [2, 2, 2, 2], "faults": []}',
     "fault set 'shape' must be a list of 2 or 3 integers"),
    ('{"version": 1, "shape": [2, true, 2], "faults": []}',
     "fault set 'shape' must be a list of 2 or 3 integers"),
]


def test_a_hostile_fault_file_is_a_one_line_cli_error(tmp_path, capsys):
    import json

    bad = tmp_path / "faults.json"
    for text, named in HOSTILE_FAULT_FILES:
        bad.write_text(text)
        for command in (["run", "--fault-file"], ["demand", "--fault-file"],
                        ["faults", "run"], ["faults", "validate"]):
            assert main(command + [str(bad), "--shape", "2x2x2"]) == 1, text
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {named}"), (text, err)
            assert len(err.splitlines()) == 1
        faults = json.loads(text)
        if isinstance(faults, dict):
            with pytest.raises(SessionError, match=re.escape(named)):
                Session.create("s", {"kind": "batch", "faults": faults})


#: A two-axis machine's own shape form, hand-written: it names the
#: machine it was drawn for, so every surface must accept it (it was
#: refused as "drawn for shape (3, 3), machine is (3, 3, 1)").
TWO_AXIS_FAULT_FILES = [
    '{"version": 1, "shape": [3, 3], "topology": "mesh", "faults": []}',
    '{"version": 1, "shape": [2, 2], "topology": "chiplet", '
    '"faults": [{"kind": "node", "chip": [1, 0, 0], "down": 5}]}',
]


@pytest.mark.parametrize("text", TWO_AXIS_FAULT_FILES)
def test_a_two_int_fault_file_shape_is_the_machines(text, tmp_path, capsys):
    import json

    path = tmp_path / "faults.json"
    path.write_text(text)
    assert main(["faults", "validate", str(path)]) == 0, capsys.readouterr().err
    assert "valid" in capsys.readouterr().out
    faults = json.loads(text)
    # Raises SessionError naming the shape if the decoder keeps (3, 3).
    Session.create(
        "s", {"kind": "batch", "topology": faults["topology"],
              "shape": faults["shape"], "batch": 1, "faults": faults}
    )
