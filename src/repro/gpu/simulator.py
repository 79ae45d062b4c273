"""Cycle-level SM/warp timing simulator — the GPGPU-Sim substitute.

The paper uses GPGPU-Sim's cycle-accurate Fermi model to obtain performance
counters and kernel runtimes for GPUWattch.  This module reproduces that
role with a sampling methodology standard in architecture studies:

1. build a representative per-warp instruction stream from the kernel's
   measured instruction mix (largest-remainder interleaving, so the stream
   proportions match the counters exactly);
2. simulate one SM — a greedy round-robin scheduler issues up to
   ``issue_width`` ready warps per cycle into unit pipelines with realistic
   occupancies (FPU one warp/cycle, SFU ``warp_size/sfu_lanes`` cycles,
   memory with fixed latency and a FIFO window of outstanding requests).
   The loop is event driven but exact: it scans only the warps whose
   latency has elapsed and jumps over cycles in which no warp is ready;
3. extrapolate the measured IPC to the kernel's full warp-instruction count
   across all SMs.

The simulated scheduler exhibits the first-order Fermi behaviors that matter
for the power model: SFU serialization, latency hiding proportional to
resident warps, and memory-bound stalls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import astuple, dataclass, fields
from heapq import heappop, heappush

from .counters import KernelCounters
from .isa import FERMI_GTX480, GPUConfig, OP_CLASS_LATENCY, OpClass

__all__ = [
    "KernelTiming",
    "StallProfile",
    "build_warp_stream",
    "profile_kernel_stalls",
    "simulate_kernel",
    "simulate_sm_window",
]


@dataclass(frozen=True)
class KernelTiming:
    """Timing summary of one kernel on the simulated GPU."""

    cycles: int
    time_s: float
    ipc_per_sm: float
    warp_instructions: int
    occupancy: float

    @property
    def time_ns(self) -> float:
        return self.time_s * 1e9


def build_warp_stream(mix: dict, length: int) -> list:
    """A ``length``-instruction stream matching the class proportions of ``mix``.

    Largest-remainder apportionment followed by even interleaving, so short
    windows still carry every class that appears in the kernel.
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    total = sum(mix.values())
    if total <= 0:
        raise ValueError("instruction mix is empty")

    quotas = {cls: mix[cls] * length / total for cls in mix if mix[cls] > 0}
    counts = {cls: int(q) for cls, q in quotas.items()}
    if length >= len(quotas):
        # Rare classes must not vanish from short windows: a dropped MEM or
        # SFU class would hide its latency/occupancy entirely.
        for cls in counts:
            counts[cls] = max(counts[cls], 1)
    while sum(counts.values()) > length:
        biggest = max(counts, key=lambda c: counts[c])
        counts[biggest] -= 1
    leftover = length - sum(counts.values())
    for cls in sorted(quotas, key=lambda c: quotas[c] - counts[c], reverse=True):
        if leftover <= 0:
            break
        counts[cls] += 1
        leftover -= 1

    # Interleave classes by spreading each class evenly over the window.
    slots = [None] * length
    order = sorted(counts, key=lambda c: counts[c], reverse=True)
    position = 0.0
    for cls in order:
        n = counts[cls]
        if n == 0:
            continue
        stride = length / n
        offset = position % 1.0
        for i in range(n):
            idx = int(offset + i * stride) % length
            while slots[idx] is not None:
                idx = (idx + 1) % length
            slots[idx] = cls
        position += 0.618  # golden-ratio offset de-synchronizes the classes
    return slots


@dataclass
class StallProfile:
    """Per-cycle issue accounting of one SM window simulation.

    Every (cycle, issue slot) either issues an instruction or is charged to
    the first reason the scheduler could not fill it:

    - ``dependency`` — every remaining warp waits on its own latency,
    - ``fpu_port`` / ``sfu_port`` / ``lsu_port`` — ready warps existed but
      the unit pipeline was occupied,
    - ``mem_bandwidth`` — the outstanding-request window was full,
    - ``drained`` — no instructions left to issue.
    """

    issued: int = 0
    dependency: int = 0
    fpu_port: int = 0
    sfu_port: int = 0
    lsu_port: int = 0
    mem_bandwidth: int = 0
    drained: int = 0

    @property
    def total_slots(self) -> int:
        return sum(astuple(self))

    def fractions(self) -> dict:
        """Slot shares per category (sums to 1)."""
        total = max(self.total_slots, 1)
        return {f.name: getattr(self, f.name) / total for f in fields(self)}

    def format_rows(self) -> str:
        lines = []
        for name, frac in self.fractions().items():
            lines.append(f"  {name:14s} {frac:6.1%} {'#' * int(round(frac * 40))}")
        return "\n".join(lines)


#: Issue port (0 FPU, 1 SFU, 2 load/store unit) and latency of each class.
_ISSUE = {op: ({OpClass.SFU: 1, OpClass.MEM: 2}.get(op, 0), OP_CLASS_LATENCY[op])
          for op in OpClass}


def simulate_sm_window(
    mix: dict,
    config: GPUConfig = FERMI_GTX480,
    resident_warps: int = 32,
    window: int = 64,
    profile: StallProfile | None = None,
) -> tuple:
    """Simulate one SM draining ``resident_warps`` warps of ``window`` instructions.

    Returns ``(cycles, instructions_issued)``; pass a :class:`StallProfile`
    to additionally collect per-slot issue/stall accounting.
    """
    if resident_warps < 1:
        raise ValueError("need at least one resident warp")
    stream = build_warp_stream(mix, window)
    issue = [_ISSUE[op] for op in stream]
    ports = [port for port, _ in issue]
    # Cycles until a warp may issue again: loads are non-blocking, so the
    # warp stalls for the full round trip only at its next true dependence
    # (modeled as every mem_dependence_distance-th access); otherwise it
    # proceeds after the LSU pipeline.
    occupancy = (1, config.sfu_occupancy_cycles, config.lsu_occupancy_cycles)
    dependence, mem_latency = config.mem_dependence_distance, config.mem_latency
    delays = [
        latency if port != 2 else mem_latency if i % dependence == 0
        else occupancy[2] + 4
        for i, (port, latency) in enumerate(issue)
    ]
    pc = [0] * resident_warps
    # ready[port]: bitmask of the warps whose last result is in and whose
    # next instruction goes to ``port``; the others wait in ``wakes``.
    ready = [0, 0, 0]
    ready[ports[0]] = (1 << resident_warps) - 1
    wakes = []  # heap of (cycle the warp is ready, warp)
    port_free = [0, 0, 0]  # first cycle each port can issue again
    # Completion cycles of the outstanding memory requests: the latency is
    # constant, so they are appended in order and expire from the front.
    outstanding_mem = deque()
    depth = config.mem_pipeline_depth

    issued = cycle = rr = 0  # rr: the round-robin pointer
    total_instr = resident_warps * window
    max_cycles = total_instr * (mem_latency + 16)

    while issued < total_instr and cycle < max_cycles:
        if not (ready[0] or ready[1] or ready[2]):
            # Every remaining warp waits on its own latency: skip the idle
            # cycles to the first wake (none if one is already due).
            skip = min(wakes[0][0], max_cycles) - cycle
            if skip > 0:
                if profile is not None:
                    profile.dependency += skip * config.issue_width
                rr = (rr + skip) % resident_warps
                cycle += skip
                if cycle == max_cycles:
                    break
        while wakes and wakes[0][0] <= cycle:
            w = heappop(wakes)[1]
            ready[ports[pc[w]]] |= 1 << w
        while outstanding_mem and outstanding_mem[0] <= cycle:
            outstanding_mem.popleft()
        # Warps ready on a free port.  Every port is busy for at least the
        # rest of the cycle once it issues, so issuing drops its warps.
        free = ((ready[0] if port_free[0] <= cycle else 0)
                | (ready[1] if port_free[1] <= cycle else 0)
                | (ready[2] if port_free[2] <= cycle and len(outstanding_mem) < depth
                   else 0))
        slots = config.issue_width
        while free and slots:
            # The first such warp in round-robin order issues.
            first = free >> rr << rr or free
            bit = first & -first
            w = bit.bit_length() - 1
            port = ports[pc[w]]
            free &= ~ready[port]
            ready[port] ^= bit
            port_free[port] = cycle + occupancy[port]
            if port == 2:
                outstanding_mem.append(cycle + mem_latency)
            at = cycle + delays[pc[w]]
            pc[w] += 1
            if pc[w] < window:
                heappush(wakes, (at, w))
            issued += 1
            slots -= 1
        if profile is not None:
            profile.issued += config.issue_width - slots
            if slots > 0:
                # Charge the unfilled slots to the dominant blocking reason:
                # a ready warp left over here was blocked by its port.
                reason = (
                    "drained" if issued == total_instr
                    else "fpu_port" if ready[0] else "sfu_port" if ready[1]
                    else "dependency" if not ready[2]
                    else "mem_bandwidth" if len(outstanding_mem) >= depth
                    else "lsu_port"
                )
                setattr(profile, reason, getattr(profile, reason) + slots)
        rr = (rr + 1) % resident_warps
        cycle += 1
    return cycle, issued


def _window_inputs(counters: KernelCounters, config: GPUConfig,
                   resident_warps: int) -> tuple:
    """``(warp-instruction mix, resident warps per SM)`` of a kernel."""
    warp_counts = counters.warp_instruction_counts(config.warp_size)
    if sum(warp_counts.values()) == 0:
        raise ValueError(f"kernel {counters.name!r} issued no instructions")
    warps = max(1, counters.threads // config.warp_size)
    return warp_counts, max(1, min(resident_warps, warps,
                                   config.max_resident_warps))


def profile_kernel_stalls(
    counters: KernelCounters,
    config: GPUConfig = FERMI_GTX480,
    resident_warps: int = 32,
    window: int = 64,
) -> StallProfile:
    """Issue/stall breakdown of a kernel's representative window."""
    warp_counts, resident = _window_inputs(counters, config, resident_warps)
    profile = StallProfile()
    simulate_sm_window(warp_counts, config, resident, window, profile=profile)
    return profile


def simulate_kernel(
    counters: KernelCounters,
    config: GPUConfig = FERMI_GTX480,
    resident_warps: int = 32,
    window: int = 64,
) -> KernelTiming:
    """Extrapolate a window simulation to the kernel's full instruction count."""
    warp_counts, resident = _window_inputs(counters, config, resident_warps)
    total_warp_instr = sum(warp_counts.values())
    cycles_window, issued = simulate_sm_window(warp_counts, config, resident, window)
    ipc = issued / cycles_window

    per_sm_instr = total_warp_instr / config.num_sms
    cycles = int(per_sm_instr / ipc) + 1
    time_s = cycles / (config.clock_ghz * 1e9)
    return KernelTiming(
        cycles=cycles,
        time_s=time_s,
        ipc_per_sm=ipc,
        warp_instructions=total_warp_instr,
        occupancy=resident / config.max_resident_warps,
    )
