"""Bit-level workspace accounting: the substrate for all space experiments.

A Python process cannot literally run on an ``O(log² n)`` worktape, so
the reproduction *meters the model-relevant state*: every register the
simulated machine is allowed is allocated through a :class:`SpaceMeter`,
which tracks the number of live bits and their peak.  Experiments then
check the peak against the paper's envelopes (``a + b·log² n`` for
Theorem 4.1).

What is counted: registers explicitly allocated by the algorithms —
path-descriptor digits, the pipeline's per-stage index/output registers
(``d_i``, ``o_i`` in Lemma 3.1), loop counters, vertex/edge indices.

What is not counted: the read-only input (a logspace machine receives it
on a read-only tape), the write-only output stream, and CPython's own
object overhead (the model's control is hardware, not tape).  The
convention is stated once here; the space experiments
(``benchmarks/bench_e5_pipeline_space.py``,
``benchmarks/bench_e6_logspace_space.py``) rely on it.
"""

from __future__ import annotations

from repro._util import bits_needed
from repro.errors import SpaceBudgetExceeded


class SpaceMeter:
    """Tracks live and peak workspace bits; optionally enforces a budget.

    Parameters
    ----------
    budget_bits:
        Optional hard bound; exceeding it raises
        :class:`repro.errors.SpaceBudgetExceeded`.  Tests use budgets to
        *prove* an algorithm stays inside a declared envelope.
    """

    def __init__(self, budget_bits: int | None = None) -> None:
        self.budget_bits = budget_bits
        self.live_bits = 0
        self.peak_bits = 0
        self.allocations = 0

    def _charge(self, bits: int) -> None:
        self.live_bits += bits
        if self.live_bits > self.peak_bits:
            self.peak_bits = self.live_bits
        if self.budget_bits is not None and self.live_bits > self.budget_bits:
            raise SpaceBudgetExceeded(self.live_bits, self.budget_bits)

    def _release(self, bits: int) -> None:
        self.live_bits -= bits
        if self.live_bits < 0:
            raise RuntimeError("space meter underflow: double free?")

    def register(self, name: str, max_value: int) -> "Register":
        """Allocate a register able to hold integers in ``[0, max_value]``."""
        self.allocations += 1
        return Register(self, name, max_value)

    def bit(self, name: str) -> "Register":
        """Allocate a single-bit register."""
        return self.register(name, 1)

    def snapshot(self) -> dict:
        """Current counters, for experiment reports."""
        return {
            "live_bits": self.live_bits,
            "peak_bits": self.peak_bits,
            "allocations": self.allocations,
            "budget_bits": self.budget_bits,
        }


class Register:
    """A metered integer register of fixed width.

    The width is ``bits_needed(max_value)`` — the model charges for the
    register's *capacity*, not its momentary content, exactly as a
    worktape segment would be reserved.  Values outside ``[0, max_value]``
    are programming errors and raise ``ValueError``.

    Registers are context managers; leaving the ``with`` block frees the
    bits.  They can also be freed explicitly (idempotent).
    """

    __slots__ = ("_meter", "name", "max_value", "width", "_value", "_freed")

    def __init__(self, meter: SpaceMeter, name: str, max_value: int) -> None:
        if max_value < 0:
            raise ValueError("max_value must be non-negative")
        self._meter = meter
        self.name = name
        self.max_value = max_value
        self.width = bits_needed(max_value)
        self._value = 0
        self._freed = False
        meter._charge(self.width)

    @property
    def value(self) -> int:
        if self._freed:
            raise RuntimeError(f"register {self.name} used after free")
        return self._value

    @value.setter
    def value(self, new_value: int) -> None:
        if self._freed:
            raise RuntimeError(f"register {self.name} used after free")
        if not 0 <= new_value <= self.max_value:
            raise ValueError(
                f"register {self.name} overflow: {new_value} not in "
                f"[0, {self.max_value}]"
            )
        self._value = new_value

    def free(self) -> None:
        """Release the register's bits (idempotent)."""
        if not self._freed:
            self._meter._release(self.width)
            self._freed = True

    def __enter__(self) -> "Register":
        return self

    def __exit__(self, *exc_info) -> None:
        self.free()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "freed" if self._freed else f"value={self._value}"
        return f"Register({self.name}, width={self.width}, {state})"


class RegisterFile:
    """A named group of registers freed together (a stack frame's worth).

    The pipeline simulator allocates one file per stage (holding ``d_i``,
    ``o_i`` and scratch counters) and frees it when the stage retires.
    """

    def __init__(self, meter: SpaceMeter, name: str) -> None:
        self._meter = meter
        self.name = name
        self._registers: dict[str, Register] = {}

    def register(self, name: str, max_value: int) -> Register:
        """Allocate a register inside this file."""
        reg = self._meter.register(f"{self.name}.{name}", max_value)
        self._registers[name] = reg
        return reg

    def bit(self, name: str) -> Register:
        """Allocate a single-bit register inside this file."""
        return self.register(name, 1)

    def __getitem__(self, name: str) -> Register:
        return self._registers[name]

    def total_width(self) -> int:
        """Combined width of the live registers in the file."""
        return sum(r.width for r in self._registers.values() if not r._freed)

    def free(self) -> None:
        """Free every register in the file."""
        for reg in self._registers.values():
            reg.free()

    def __enter__(self) -> "RegisterFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.free()
