"""What a packet costs in memory at the paper's scale (8x8x8, 16 cores).

Figs 9-10 of the paper run a 512-node machine with one core per router.
A batch there is millions of packets, so its memory is bytes per packet
times packets: at 16 cores x 1 024 packets per source, 8.4 M of them.
This bar generates two 8x8x8 x 16 cores x 16 uniform batches (131 072
packets each) in a fresh interpreter and prints

* the RSS the first batch added, per packet: the packet, its route (an
  ``array('i')`` of engine slots, 4 B a hop) and the machine's route
  memo entry that holds the route;
* the RSS the second batch added, per packet. The memo holds at most
  ``ROUTE_MEMO_ENTRIES`` (2^17) routes and empties itself when full, so
  its share is paid once: this is what every further packet of a
  paper-scale batch costs, and what the bar reads; and
* the bytes of a route object and its slot array, per hop.

It fails when a further packet costs more than
:data:`MAX_BYTES_PER_PACKET`. Routes stored as tuples of ``(channel,
VC)`` pairs cost about 2.6 KB a packet here (2.7 KB with the memo
filling). Run it with ``python benchmarks/bench_route_memory.py``
(about 20 s, ~200 MiB) or through pytest, which runs the same
measurement in a child interpreter so the RSS readings are the
batches' alone.
"""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys
import time

SHAPE = (8, 8, 8)
CORES = 16
PACKETS_PER_SOURCE = 16
SEED = 1
#: The bar: RSS a packet of the second batch adds (the memo's share is paid).
MAX_BYTES_PER_PACKET = 600


def current_rss_bytes() -> int:
    """Resident set size of this process now (its peak where ``/proc``
    is missing)."""
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def measure() -> dict:
    from repro.core.machine import Machine, MachineConfig
    from repro.core.routing import RouteComputer
    from repro.traffic.batch import BatchSpec, generate_batch
    from repro.traffic.patterns import UniformRandom

    machine = Machine(MachineConfig(shape=SHAPE, endpoints_per_chip=CORES))
    routes = RouteComputer(machine)

    def batch(seed, packets_per_source=PACKETS_PER_SOURCE, cores=CORES):
        spec = BatchSpec(
            UniformRandom(SHAPE), packets_per_source=packets_per_source,
            cores_per_chip=cores, seed=seed,
        )
        gc.collect()
        before = current_rss_bytes()
        started = time.process_time()
        packets = generate_batch(machine, routes, spec)
        cpu = time.process_time() - started
        gc.collect()
        return packets, (current_rss_bytes() - before) / len(packets), cpu

    # The chip-local tables every route is assembled from, built once.
    batch(SEED, packets_per_source=1, cores=1)
    machine.route_memo(routes.direction_order, routes.allow_nonminimal).clear()
    first, first_bytes, cpu = batch(SEED)
    further, further_bytes, _cpu = batch(SEED + 1)
    route_bytes = hops = 0
    for packet in first:
        route = packet.route
        route_bytes += sys.getsizeof(route) + sys.getsizeof(route.slots)
        hops += len(route.slots)
    return {
        "packets": len(first),
        "rss_bytes_per_packet": first_bytes,
        "rss_bytes_per_further_packet": further_bytes,
        "route_bytes_per_hop": route_bytes / hops,
        "hops_per_route": hops / len(first),
        "generate_cpu_s": cpu,
    }


def report(result: dict) -> str:
    return (
        f"8x8x8 x {CORES} cores x {PACKETS_PER_SOURCE} uniform, "
        f"{result['packets']} packets a batch: "
        f"{result['rss_bytes_per_packet']:.0f} B RSS per packet with the "
        f"route memo filling, {result['rss_bytes_per_further_packet']:.0f} B "
        f"per further packet (bar {MAX_BYTES_PER_PACKET}); "
        f"{result['route_bytes_per_hop']:.2f} route B per hop over "
        f"{result['hops_per_route']:.1f} hops; "
        f"generated in {result['generate_cpu_s']:.1f} CPU-s"
    )


def main() -> int:
    result = measure()
    print(report(result))
    return 0 if result["rss_bytes_per_further_packet"] <= MAX_BYTES_PER_PACKET else 1


def test_route_memory():
    # A child interpreter: this process's heap already holds whatever
    # the tests before this one left in it.
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True,
    )
    print(done.stdout, done.stderr)
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    sys.exit(main())
