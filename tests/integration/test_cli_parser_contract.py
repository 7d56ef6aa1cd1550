"""The command line's contract: every subcommand's option strings,
defaults and choices, as a literal table.

Written against the parser as it stood before the ``add_*_args``
consolidation (PR 16), so that refactor provably moved nothing except
the rows marked below: ``--shape``/``--topology`` default to ``None`` on
``run`` and ``demand`` (the fault file's machine may now fill them in;
the command's own default still applies last), and serial ``run
--policy`` accepts ``retry``. ``trace`` and ``profile`` have since lost
``--shards``: a sharded run takes no trace sink, and per-shard
profiling is gone. Help strings and the order options are
declared in are not part of the contract.
"""

import argparse

from repro.cli import build_parser

ARB = ("rr", "age", "iw")
PATTERNS = ("uniform", "1hop", "2hop", "tornado", "reverse-tornado")
TOPOLOGIES = ("torus", "mesh", "chiplet")
POLICIES = ("reroute", "drop", "retry")

#: subcommand path -> {option strings (or positional dest): (default, choices)}
CONTRACT = {
    'info': {
        '--shape': ((4, 4, 4), None),
        '--endpoints': (4, None),
        '--topology': ('torus', TOPOLOGIES),
    },
    'route': {
        '--shape': ((4, 4, 4), None),
        '--endpoints': (4, None),
        '--topology': ('torus', TOPOLOGIES),
        '--src': (None, None),
        '--dst': (None, None),
        '--order': ('XYZ', ('XYZ', 'XZY', 'YXZ', 'YZX', 'ZXY', 'ZYX')),
        '--slice': (0, (0, 1)),
    },
    'search': {
    },
    'deadlock': {
        '--shape': (None, None),
        '--scheme': ('anton', ('anton', 'baseline', 'unsafe-single')),
        '--topology': ('torus', TOPOLOGIES),
    },
    'throughput': {
        '--shape': ((4, 4, 4), None),
        '--endpoints': (4, None),
        '--topology': ('torus', TOPOLOGIES),
        '--pattern': ('uniform', PATTERNS),
        '--batch': (64, None),
        '--cores': (4, None),
        '--arbitration': ('iw', ARB),
        '--seed': (0, None),
    },
    'run': {
        '--shape': (None, None),  # PR 16: was (4, 4, 4); now the fault file's, then 4x4x4
        '--endpoints': (2, None),
        '--topology': (None, TOPOLOGIES),  # PR 16: was 'torus'; now the fault file's, then torus
        '--pattern': ('uniform', PATTERNS),
        '--batch': (8, None),
        '--cores': (2, None),
        '--arbitration': ('rr', ARB),
        '--seed': (0, None),
        '--shards': (1, None),
        '--fault-file': (None, None),
        '--policy': ('reroute', POLICIES),  # PR 16: gained 'retry'
        '--retries': (4, None),
        '--checkpoint': (None, None),
        '--checkpoint-every': (64, None),
    },
    'trace': {
        '--shape': ((4, 4, 4), None),
        '--endpoints': (2, None),
        '--topology': ('torus', TOPOLOGIES),
        '--pattern': ('uniform', PATTERNS),
        '--batch': (4, None),
        '--cores': (2, None),
        '--arbitration': ('rr', ARB),
        '--seed': (0, None),
        '--window': (256, None),
        '--out': ('-', None),
        '--golden': (None, None),
        '--list-goldens': (False, None),
    },
    'demand': {
        '--shape': (None, None),  # PR 16: was (4, 4, 4); now the fault file's, then 4x4x4
        '--endpoints': (2, None),
        '--topology': (None, TOPOLOGIES),  # PR 16: was 'torus'; now the fault file's, then torus
        '--generator': ('hotspot', ('uniform', 'hotspot', 'skew', 'permutation', 'adversarial', 'file')),
        '--rate': (0.25, None),
        '--hotspots': (1, None),
        '--hot-fraction': (0.5, None),
        '--skew-exponent': (1.0, None),
        '--matrix-seed': (0, None),
        '--matrix-file': (None, None),
        '--restarts': (3, None),
        '--steps': (60, None),
        '--epochs': (1, None),
        '--epoch-length': (64, None),
        '--mode': ('open', ('open', 'closed')),
        '--duration': (256, None),
        '--scale': (1.0, None),
        '--injection': ('bernoulli', ('bernoulli', 'paced')),
        '--cores': (2, None),
        '--arbitration': ('rr', ARB),
        '--seed': (0, None),
        '--trace': (None, None),
        '--checkpoint': (None, None),
        '--checkpoint-every': (64, None),
        '--fault-file': (None, None),
        '--policy': ('reroute', POLICIES),
        '--retries': (4, None),
    },
    'replay': {
        'trace_file': (None, None),
        '--trace': (None, None),
        '--arbitration': (None, ARB),
        '--verify': (False, None),
    },
    'serve': {
        '--host': ('127.0.0.1', None),
        '--port': (7777, None),
        '--max-sessions': (1024, None),
        '--quantum': (256, None),
        '--backpressure': ('drop-oldest', ('drop-oldest', 'pause')),
        '--metrics-every': (0, None),
    },
    'loadtest': {
        '--host': (None, None),
        '--port': (None, None),
        '--sessions': (500, None),
        '--connections': (16, None),
        '--steps': (2, None),
        '--step-cycles': (64, None),
        '--spread': (0.25, None),
        '--seed': (0, None),
        '--out': (None, None),
    },
    'faults sample': {
        '--shape': ((4, 4, 4), None),
        '--endpoints': (2, None),
        '--topology': ('torus', TOPOLOGIES),
        '-k': (1, None),
        '--seed': (0, None),
        '--kinds': (['torus'], ('torus', 'mesh', 'skip', 'rca', 'car')),
        '--down': (0, None),
        '--up': (None, None),
        '--note': ('', None),
        '--out': ('-', None),
    },
    'faults validate': {
        'fault_file': (None, None),
        '--shape': (None, None),
        '--endpoints': (2, None),
        '--topology': (None, TOPOLOGIES),
        '--check-routes': (False, None),
        '--check-deadlock': (False, None),
    },
    'faults run': {
        'fault_file': (None, None),
        '--shape': (None, None),
        '--endpoints': (2, None),
        '--topology': (None, TOPOLOGIES),
        '--pattern': ('uniform', PATTERNS),
        '--batch': (8, None),
        '--cores': (2, None),
        '--arbitration': ('rr', ARB),
        '--policy': ('reroute', POLICIES),
        '--retries': (4, None),
        '--seed': (0, None),
        '--trace': (None, None),
        '--checkpoint': (None, None),
        '--checkpoint-every': (64, None),
    },
    'faults': {
    },
    'checkpoint save': {
        '--shape': ((4, 4, 4), None),
        '--endpoints': (2, None),
        '--topology': ('torus', TOPOLOGIES),
        '--pattern': ('uniform', PATTERNS),
        '--batch': (4, None),
        '--cores': (2, None),
        '--arbitration': ('rr', ARB),
        '--seed': (0, None),
        '--cycles': (None, None),
        '--trace': (None, None),
        '--out': ('checkpoint.json', None),
        '--shards': (1, None),
    },
    'checkpoint restore': {
        'checkpoint_file': (None, None),
        '--trace': (None, None),
    },
    'checkpoint info': {
        'checkpoint_file': (None, None),
    },
    'checkpoint': {
    },
    'profile': {
        '--shape': ((4, 4, 4), None),
        '--endpoints': (4, None),
        '--topology': ('torus', TOPOLOGIES),
        '--pattern': ('uniform', PATTERNS),
        '--batch': (32, None),
        '--cores': (4, None),
        '--arbitration': ('rr', ARB),
        '--seed': (0, None),
        '--top': (25, None),
    },
    'latency': {
        '--shape': ((4, 4, 4), None),
        '--endpoints': (2, None),
        '--topology': ('torus', TOPOLOGIES),
    },
    'area': {
    },
    'energy': {
    },
}


def _declared(parser, path=(), out=None):
    out = {} if out is None else out
    rows = {}
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                _declared(sub, path + (name,), out)
            continue
        choices = None if action.choices is None else tuple(action.choices)
        rows[" ".join(action.option_strings) or action.dest] = (
            action.default, choices
        )
    if path:
        out[" ".join(path)] = rows
    return out


def test_every_subcommand_matches_the_table():
    declared = _declared(build_parser())
    assert sorted(declared) == sorted(CONTRACT)
    for command, rows in CONTRACT.items():
        assert declared[command] == rows, command
