"""``import repro`` must not pay for numpy or scipy.

They cost 0.6 CPU-s and 75 MiB per process -- every CLI call, server
boot, spawned worker and test process -- and only the worst-case LP and
two model fits use them. The deadlock checker uses no installed package
at all: it finds cycles itself, so no graph library is a dependency.
Each script below runs in a fresh interpreter; CI runs the first one as
a step of its own so a stray top-level import fails by name.
"""

import subprocess
import sys
import textwrap

HEAVY = ("numpy", "scipy")

#: Also the CI step (``.github/workflows/ci.yml``, tier-1 job).
IMPORT_GATE = (
    "import sys, repro, repro.cli, repro.serve.server, repro.sim.shard; "
    f"heavy = [m for m in {HEAVY!r} if m in sys.modules]; "
    "sys.exit('imported at top level: ' + ', '.join(heavy) if heavy else 0)"
)

_USE_SCRIPT = textwrap.dedent(
    f"""
    import site
    import sys

    import repro
    from repro.core import Machine, MachineConfig, RouteComputer
    from repro.core import analyze, worst_case_lp
    from repro.models.energy import EnergyModel, fit_model, synthesize_measurements
    from repro.models.latency import linear_fit

    assert not [m for m in {HEAVY!r} if m in sys.modules]

    def installed():
        roots = tuple(site.getsitepackages()) + (site.getusersitepackages(),)
        return {{
            name.partition(".")[0] for name, module in list(sys.modules.items())
            if (getattr(module, "__file__", None) or "").startswith(roots)
        }} - {{"repro"}}

    before = installed()
    machine = Machine(MachineConfig(shape=(2, 2, 2), endpoints_per_chip=1))
    report = analyze(machine, RouteComputer(machine))
    assert installed() == before, sorted(installed() - before)
    assert report.deadlock_free and report.t_vcs_used == {{0, 1, 2, 3}}
    assert (report.nodes, report.edges) == (1472, 1952)

    assert "scipy" not in sys.modules
    lp = worst_case_lp()
    assert "scipy.optimize" in sys.modules and "numpy" in sys.modules
    assert abs(lp.worst_load - 2.0) < 1e-9 and lp.demand.shape == (6, 6)
    assert lp.worst_channel == (0, (0, 2), (0, 1))

    intercept, slope = linear_fit({{1: 120.0, 2: 159.0, 3: 198.0}})
    assert abs(intercept - 81.0) < 1e-9 and abs(slope - 39.0) < 1e-9
    truth = EnergyModel()
    fitted = fit_model(synthesize_measurements(truth, noise_pj=0.0))
    assert abs(fitted.fixed_pj - truth.fixed_pj) < 1e-6
    print("lazy imports: ok")
    """
)


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )


def test_importing_the_package_cli_server_and_shards_loads_no_heavy_module():
    done = _run(IMPORT_GATE)
    assert done.returncode == 0, done.stderr


def test_heavy_modules_load_on_first_use_and_results_are_unchanged():
    done = _run(_USE_SCRIPT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "lazy imports: ok"
