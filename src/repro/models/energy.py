"""Router energy model with activation rate (Section 4.5, Figure 13).

The paper measures per-flit router energy as a function of injection rate
``r`` for three payload patterns (all zeros, all ones, random) and fits

    E = 42.7 + 0.837 h + (34.4 + 0.250 n) (a / r)   pJ,

where ``h`` is the mean Hamming distance between successive valid flits,
``n`` the mean number of set payload bits, and ``a`` the *activation
rate* -- the rate of idle-to-valid transitions at a router port, with
``0 <= a <= min(r, 1 - r)``. The activation term is the paper's novel
contribution to router power modeling.

This module provides:

* :class:`EnergyModel` -- the fitted model, with the paper's coefficients
  as defaults;
* flit-stream synthesis (:func:`make_stream`, :func:`stream_statistics`)
  that builds actual 192-bit flit sequences at a chosen injection and
  activation rate and measures ``h`` and ``n`` bit-exactly;
* the paper's two-route measurement methodology
  (:func:`measure_per_hop_energy`): per-hop energy recovered by
  subtracting the power of a 3-hop route from a 35-hop route;
* least-squares coefficient recovery (:func:`fit_model`) from synthetic
  measurements -- the model is linear in its four coefficients, so an
  ordinary linear regression suffices.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import params

#: Payload width in bits (a 24-byte flit carries a 192-bit payload path).
FLIT_BITS = params.MESH_CHANNEL_BITS

#: The three payload patterns measured in Figure 13.
PAYLOAD_PATTERNS = ("zeros", "ones", "random")


@dataclasses.dataclass(frozen=True)
class EnergyModel:
    """Per-flit router energy, in picojoules."""

    fixed_pj: float = params.ENERGY_FIXED_PJ
    per_bitflip_pj: float = params.ENERGY_PER_BITFLIP_PJ
    activation_fixed_pj: float = params.ENERGY_ACTIVATION_FIXED_PJ
    activation_per_setbit_pj: float = params.ENERGY_ACTIVATION_PER_SETBIT_PJ

    def per_flit_energy(
        self, injection_rate: float, activation_rate: float, hamming: float, set_bits: float
    ) -> float:
        """Energy per flit for a stream with the given statistics.

        ``injection_rate`` is flits per cycle (0 < r <= 1);
        ``activation_rate`` must satisfy ``0 <= a <= min(r, 1 - r)``.
        """
        r, a = injection_rate, activation_rate
        if not 0 < r <= 1:
            raise ValueError(f"injection rate must be in (0, 1], got {r}")
        # The tolerance accommodates rates measured from finite streams,
        # where rounding can push a marginally past min(r, 1 - r).
        if a < -1e-12 or a > min(r, 1 - r) + 1e-3:
            raise ValueError(
                f"activation rate {a} outside [0, min(r, 1-r)] for r={r}"
            )
        return (
            self.fixed_pj
            + self.per_bitflip_pj * hamming
            + (self.activation_fixed_pj + self.activation_per_setbit_pj * set_bits)
            * (a / r)
        )

    def coefficients(self) -> Tuple[float, float, float, float]:
        return (
            self.fixed_pj,
            self.per_bitflip_pj,
            self.activation_fixed_pj,
            self.activation_per_setbit_pj,
        )


def max_activation_rate(injection_rate: float) -> float:
    """The maximal activation rate used in the paper's experiments."""
    return min(injection_rate, 1.0 - injection_rate)


def payload_flit(pattern: str, rng: random.Random) -> int:
    """One flit payload as an integer bit vector."""
    if pattern == "zeros":
        return 0
    if pattern == "ones":
        return (1 << FLIT_BITS) - 1
    if pattern == "random":
        return rng.getrandbits(FLIT_BITS)
    raise ValueError(f"unknown payload pattern {pattern!r}")


def make_stream(
    pattern: str,
    injection_rate: float,
    length_cycles: int,
    seed: int = 0,
    activation_rate: Optional[float] = None,
) -> List[Optional[int]]:
    """A cycle-by-cycle flit stream: payload bits or None for idle cycles.

    The valid/idle schedule realizes the requested injection rate ``r``
    and activation rate ``a`` (default: maximal, ``min(r, 1-r)``) by
    emitting bursts of ``ceil(r/a)``-ish valid cycles separated by idle
    gaps, mirroring the paper's experimental setup that maximized
    activations.
    """
    if not 0 < injection_rate <= 1:
        raise ValueError(f"injection rate must be in (0, 1], got {injection_rate}")
    if activation_rate is None:
        activation_rate = max_activation_rate(injection_rate)
    if activation_rate <= 0:
        if injection_rate < 1.0:
            raise ValueError("activation rate must be positive for r < 1")
        # r = 1: one unbroken burst.
        rng = random.Random(seed)
        return [payload_flit(pattern, rng) for _ in range(length_cycles)]
    if activation_rate > max_activation_rate(injection_rate) + 1e-12:
        raise ValueError(
            f"activation rate {activation_rate} exceeds min(r, 1-r) for "
            f"r={injection_rate}"
        )
    rng = random.Random(seed)
    stream: List[Optional[int]] = []
    # One burst per activation period. Error diffusion on both the burst
    # lengths (r / a valid cycles per period) and the period lengths
    # (1 / a cycles) realizes the exact rates in the long run; e.g.
    # r = 0.75, a = 0.25 yields ...0111 0111... as in the paper's example.
    burst_exact = injection_rate / activation_rate
    period_exact = 1.0 / activation_rate
    target_valid = 0.0
    target_cycles = 0.0
    emitted_valid = 0
    emitted_cycles = 0
    while emitted_cycles < length_cycles:
        target_valid += burst_exact
        target_cycles += period_exact
        burst = max(1, round(target_valid) - emitted_valid)
        period = max(burst + 1, round(target_cycles) - emitted_cycles)
        for i in range(min(period, length_cycles - emitted_cycles)):
            stream.append(payload_flit(pattern, rng) if i < burst else None)
        emitted_valid += burst
        emitted_cycles += period
    return stream[:length_cycles]


@dataclasses.dataclass
class StreamStats:
    """Measured statistics of a flit stream."""

    injection_rate: float
    activation_rate: float
    mean_hamming: float
    mean_set_bits: float
    flits: int


def stream_statistics(stream: Sequence[Optional[int]]) -> StreamStats:
    """Measure r, a, h, n of a stream bit-exactly."""
    flits = 0
    activations = 0
    hamming_total = 0
    set_bits_total = 0
    previous_flit: Optional[int] = None
    previous_valid = False
    for flit in stream:
        if flit is None:
            previous_valid = False
            continue
        flits += 1
        if not previous_valid:
            activations += 1
        set_bits_total += bin(flit).count("1")
        if previous_flit is not None:
            hamming_total += bin(flit ^ previous_flit).count("1")
        previous_flit = flit
        previous_valid = True
    if flits == 0:
        raise ValueError("stream contains no flits")
    cycles = len(stream)
    return StreamStats(
        injection_rate=flits / cycles,
        activation_rate=activations / cycles,
        mean_hamming=hamming_total / max(1, flits - 1),
        mean_set_bits=set_bits_total / flits,
        flits=flits,
    )


def measure_per_hop_energy(
    model: EnergyModel,
    pattern: str,
    injection_rate: float,
    length_cycles: int = 4096,
    seed: int = 0,
    noise_pj: float = 0.0,
    long_hops: int = 35,
    short_hops: int = 3,
) -> float:
    """The paper's two-route methodology, reproduced end to end.

    A core streams flits around a ``long_hops``-hop route and a
    ``short_hops``-hop route confined to one chip; router power is the
    per-hop energy times hops times injection rate (idle power excluded,
    as in the paper's methodology footnote). Subtracting the two powers
    and dividing by the hop difference and injection rate recovers the
    per-flit, per-hop energy.
    """
    stream = make_stream(pattern, injection_rate, length_cycles, seed)
    stats = stream_statistics(stream)
    per_hop = model.per_flit_energy(
        stats.injection_rate,
        stats.activation_rate,
        stats.mean_hamming,
        stats.mean_set_bits,
    )
    rng = random.Random(seed + 1)

    def route_power(hops: int) -> float:
        power = per_hop * hops * stats.injection_rate
        if noise_pj:
            power += rng.gauss(0.0, noise_pj * hops * stats.injection_rate)
        return power

    delta_power = route_power(long_hops) - route_power(short_hops)
    return delta_power / (long_hops - short_hops) / stats.injection_rate


def energy_curve(
    model: EnergyModel,
    pattern: str,
    rates: Sequence[float],
    length_cycles: int = 4096,
    seed: int = 0,
) -> List[Tuple[float, float]]:
    """Per-flit energy at each injection rate (one Figure 13 curve)."""
    curve = []
    for rate in rates:
        energy = measure_per_hop_energy(model, pattern, rate, length_cycles, seed)
        curve.append((rate, energy))
    return curve


def fit_model(
    measurements: Sequence[Tuple[StreamStats, float]]
) -> EnergyModel:
    """Least-squares fit of the four model coefficients.

    ``measurements`` pairs stream statistics with measured per-flit
    energies. The model is linear in its coefficients:
    ``E = c0 + c1 h + c2 (a/r) + c3 (n a/r)``.
    """
    import numpy as np

    if len(measurements) < 4:
        raise ValueError("need at least four measurements to fit four coefficients")
    rows = []
    targets = []
    for stats, energy in measurements:
        ratio = stats.activation_rate / stats.injection_rate
        rows.append([1.0, stats.mean_hamming, ratio, stats.mean_set_bits * ratio])
        targets.append(energy)
    coeffs, _residuals, rank, _sv = np.linalg.lstsq(
        np.array(rows), np.array(targets), rcond=None
    )
    if rank < 4:
        raise ValueError(
            "measurement set is degenerate (vary payloads and rates to "
            "identify all four coefficients)"
        )
    return EnergyModel(
        fixed_pj=float(coeffs[0]),
        per_bitflip_pj=float(coeffs[1]),
        activation_fixed_pj=float(coeffs[2]),
        activation_per_setbit_pj=float(coeffs[3]),
    )


def synthesize_measurements(
    model: Optional[EnergyModel] = None,
    patterns: Sequence[str] = PAYLOAD_PATTERNS,
    rates: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    length_cycles: int = 4096,
    noise_pj: float = 0.5,
    seed: int = 0,
) -> List[Tuple[StreamStats, float]]:
    """Generate noisy synthetic measurements across patterns and rates."""
    model = model or EnergyModel()
    rng = random.Random(seed)
    measurements = []
    for pattern in patterns:
        for rate in rates:
            stream = make_stream(pattern, rate, length_cycles, seed)
            stats = stream_statistics(stream)
            energy = model.per_flit_energy(
                stats.injection_rate,
                stats.activation_rate,
                stats.mean_hamming,
                stats.mean_set_bits,
            )
            if noise_pj:
                energy += rng.gauss(0.0, noise_pj)
            measurements.append((stats, energy))
    return measurements
