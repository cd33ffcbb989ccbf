"""Static game description for attacked parallel-server scheduling.

A system has ``n`` identical-intercept servers, a total job mass of ``n``
(one unit per server), and an additive attack that inflates the delay of a
single server by a constant. Schedulers are either machines (which minimize
the mean system delay) or selfish jobs (which minimize their own delay).
This module holds the value types shared by every solver plus the delay /
marginal-cost / system-cost primitives.

Server indices are 1-based in every public interface; server 1 is the
conventional attack target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

#: absolute slack for scaled-simplex membership of a load profile
MASS_TOL = 1e-9


class ValidationError(ValueError):
    """A profile, instance, or population violates a model invariant."""


def _as_floats(values: Iterable[float]) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def horner(coefficients: Sequence[float], x: float) -> float:
    """Value at ``x`` of the polynomial with the given coefficients, constant first."""
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class DelayFunction:
    """Polynomial delay ``tau(x) = sum_j c_j x**j`` with nonnegative coefficients.

    Nonnegative coefficients make the delay convex and nondecreasing on
    ``x >= 0`` by construction, and the marginal cost is available exactly. A
    coefficient whose marginal-cost term ``(j + 1) c_j`` overflows is
    rejected, so every marginal-cost slope is finite.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = _as_floats(self.coefficients)
        if not coeffs:
            raise ValueError("delay polynomial needs at least a constant term")
        if any(not math.isfinite(c) or c < 0.0 for c in coeffs):
            raise ValueError(f"delay coefficients must be finite and nonnegative: {coeffs}")
        for j, c in enumerate(coeffs):
            if math.isinf((j + 1) * c):
                raise ValueError(f"delay coefficient c_{j} = {c!r} overflows its "
                                 f"marginal cost {j + 1} * c_{j}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def intercept(self) -> float:
        """Uncongested service time ``tau(0)``."""
        return self.coefficients[0]

    @cached_property
    def marginal_coefficients(self) -> tuple[float, ...]:
        """Coefficients of ``tau(x) + x * tau'(x)``, i.e. ``(j + 1) c_j``."""
        return tuple((j + 1) * c for j, c in enumerate(self.coefficients))

    def __call__(self, x: float) -> float:
        return horner(self.coefficients, x)


def eval_delay(f: DelayFunction, x: float, attack_bonus: float = 0.0) -> float:
    """Delay at load ``x``, degraded by a constant attack offset."""
    if x < 0.0:
        raise ValueError(f"load must be nonnegative, got {x}")
    if attack_bonus < 0.0:
        raise ValueError(f"attack bonus must be nonnegative, got {attack_bonus}")
    return f(x) + attack_bonus


def eval_marginal_cost(f: DelayFunction, x: float, attack_bonus: float = 0.0) -> float:
    """Marginal contribution ``tau(x) + x tau'(x)`` to total delay, plus the attack offset.

    Equalizing this quantity across used servers characterizes allocations
    that minimize the mean system delay.
    """
    if x < 0.0:
        raise ValueError(f"load must be nonnegative, got {x}")
    if attack_bonus < 0.0:
        raise ValueError(f"attack bonus must be nonnegative, got {attack_bonus}")
    return horner(f.marginal_coefficients, x) + attack_bonus


@dataclass(frozen=True)
class GameInstance:
    """``n`` servers with polynomial delays and a single additive attack.

    The total job mass is fixed to ``n`` by the model. ``attack_target`` is
    1-based; ``attack_strength`` is the constant added to that server's delay.
    Cross-field invariants (equal intercepts, target in range, nonnegative
    strength) are reported by :func:`validate` rather than enforced here so
    that malformed descriptions can be inspected as data.
    """

    n: int
    delays: tuple[DelayFunction, ...]
    attack_target: int = 1
    attack_strength: float = 0.0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"server count must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        delays = tuple(
            d if isinstance(d, DelayFunction) else DelayFunction(_as_floats(d))
            for d in self.delays
        )
        if len(delays) != self.n:
            raise ValueError(f"expected {self.n} delay functions, got {len(delays)}")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "attack_strength", float(self.attack_strength))

    @classmethod
    def linear(cls, n: int, attack_strength: float = 0.0, attack_target: int = 1) -> "GameInstance":
        """Identical unit-slope linear servers, ``tau_i(x) = x``."""
        return cls(n, tuple(DelayFunction((0.0, 1.0)) for _ in range(n)),
                   attack_target, attack_strength)

    @classmethod
    def identical(cls, n: int, coefficients: Sequence[float],
                  attack_strength: float = 0.0, attack_target: int = 1) -> "GameInstance":
        """All servers sharing one delay polynomial."""
        f = DelayFunction(_as_floats(coefficients))
        return cls(n, tuple(f for _ in range(n)), attack_target, attack_strength)

    def attack_bonus(self, server: int) -> float:
        """Delay offset suffered at 1-based ``server`` under the attack."""
        return self.attack_strength if server == self.attack_target else 0.0

    def cost(self, loads: Sequence[float]) -> float:
        """Mean delay of a raw load vector; trusts the caller on feasibility."""
        total = 0.0
        for i, x in enumerate(loads, start=1):
            total += x * (self.delays[i - 1](x) + self.attack_bonus(i))
        return total / self.n


@dataclass(frozen=True)
class LoadProfile:
    """Aggregate loads ``(x_1 .. x_n)``: nonnegative, summing to the server count."""

    loads: tuple[float, ...]

    def __post_init__(self) -> None:
        loads = _as_floats(self.loads)
        if not loads:
            raise ValidationError("load profile is empty")
        if any(not math.isfinite(x) for x in loads):
            raise ValidationError(f"non-finite load in profile: {loads}")
        if any(x < 0.0 for x in loads):
            raise ValidationError(f"negative load in profile: {loads}")
        mass = math.fsum(loads)
        if abs(mass - len(loads)) > MASS_TOL:
            raise ValidationError(
                f"profile mass {mass!r} differs from required {len(loads)} by more than {MASS_TOL}")
        object.__setattr__(self, "loads", loads)

    @classmethod
    def from_raw(cls, loads: Sequence[float]) -> "LoadProfile":
        """Clamp numeric dust and rescale to exact mass before constructing.

        Negative loads clamp to 0; a NaN or infinite load raises.
        """
        raw = _as_floats(loads)
        if any(not math.isfinite(x) for x in raw):
            raise ValidationError(f"non-finite load in profile: {raw}")
        clipped = [max(0.0, x) for x in raw]
        s = math.fsum(clipped)
        n = len(clipped)
        if s <= 0.0:
            raise ValidationError("cannot normalize an all-zero load vector")
        return cls(tuple(x * (n / s) for x in clipped))

    def __len__(self) -> int:
        return len(self.loads)

    def load(self, server: int) -> float:
        """Load on 1-based ``server``."""
        return self.loads[server - 1]


def system_cost(instance: GameInstance, profile: LoadProfile | Sequence[float]) -> float:
    """Mean service delay under the instance's attack.

    The attacked server contributes ``x * (tau(x) + alpha)``; everything else
    ``x * tau(x)``; divided by the server count.
    """
    if not isinstance(profile, LoadProfile):
        profile = LoadProfile(_as_floats(profile))
    if len(profile) != instance.n:
        raise ValidationError(
            f"profile has {len(profile)} servers, instance has {instance.n}")
    return instance.cost(profile.loads)


@dataclass(frozen=True)
class SchedulerPopulation:
    """Machine masses and access sets plus the residual selfish mass.

    ``machine_access[k]`` and ``selfish_access`` are sets of 1-based server
    indices. ``selfish_mass`` must equal ``n - sum(machine_masses)``; use
    :meth:`for_instance` to compute it. Consistency with a concrete instance
    is reported by :func:`validate`.
    """

    machine_masses: tuple[float, ...]
    machine_access: tuple[frozenset[int], ...]
    selfish_access: frozenset[int]
    selfish_mass: float

    def __post_init__(self) -> None:
        masses = _as_floats(self.machine_masses)
        access = tuple(frozenset(int(i) for i in a) for a in self.machine_access)
        if len(masses) != len(access):
            raise ValueError(
                f"{len(masses)} machine masses but {len(access)} access sets")
        object.__setattr__(self, "machine_masses", masses)
        object.__setattr__(self, "machine_access", access)
        object.__setattr__(self, "selfish_access",
                           frozenset(int(i) for i in self.selfish_access))
        object.__setattr__(self, "selfish_mass", float(self.selfish_mass))

    @classmethod
    def for_instance(cls, n: int,
                     machines: Sequence[tuple[float, Iterable[int] | None]] = (),
                     selfish_access: Iterable[int] | None = None) -> "SchedulerPopulation":
        """Build a population for an ``n``-server instance.

        ``machines`` is a sequence of ``(mass, access)`` pairs; ``None`` access
        means every server. The selfish mass is whatever the machines leave.
        """
        everything = frozenset(range(1, n + 1))
        masses = tuple(float(m) for m, _ in machines)
        access = tuple(everything if a is None else frozenset(int(i) for i in a)
                       for _, a in machines)
        selfish = everything if selfish_access is None else frozenset(
            int(i) for i in selfish_access)
        return cls(masses, access, selfish, n - math.fsum(masses))

    @classmethod
    def full_access(cls, n: int, machine_mass: float, machines: int = 1) -> "SchedulerPopulation":
        """``machines`` identical full-access machines sharing ``machine_mass``."""
        if machines < 0:
            raise ValueError("machine count must be nonnegative")
        if machine_mass <= 0.0 or machines == 0:
            return cls.for_instance(n, ())
        share = machine_mass / machines
        return cls.for_instance(n, tuple((share, None) for _ in range(machines)))

    @property
    def machine_count(self) -> int:
        return len(self.machine_masses)

    @property
    def machine_mass_total(self) -> float:
        return math.fsum(self.machine_masses)


@dataclass(frozen=True)
class DisaggregatedProfile:
    """Per-scheduler load decomposition: one selfish block plus one block per machine."""

    selfish: tuple[float, ...]
    per_machine: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "selfish", _as_floats(self.selfish))
        object.__setattr__(self, "per_machine",
                           tuple(_as_floats(b) for b in self.per_machine))
        n = len(self.selfish)
        for k, block in enumerate(self.per_machine, start=1):
            if len(block) != n:
                raise ValidationError(
                    f"machine block {k} has {len(block)} entries, expected {n}")

    def aggregate_loads(self) -> tuple[float, ...]:
        totals = list(self.selfish)
        for block in self.per_machine:
            for i, x in enumerate(block):
                totals[i] += x
        return tuple(totals)

    def aggregate(self) -> LoadProfile:
        """Aggregate profile; raises if the blocks do not form a valid one."""
        return LoadProfile(self.aggregate_loads())


def validate(instance: GameInstance, population: SchedulerPopulation) -> list[str]:
    """Check every cross-field invariant; return violations as data.

    Each entry is ``"code: detail"`` naming the broken invariant and the
    offending index. An empty list means the pair is well-formed.
    """
    issues: list[str] = []
    n = instance.n

    base = instance.delays[0].intercept
    for i in range(2, n + 1):
        if instance.delays[i - 1].intercept != base:
            issues.append(
                f"intercept-mismatch: server {i} has tau(0)={instance.delays[i - 1].intercept}, "
                f"server 1 has {base}")
    if not 1 <= instance.attack_target <= n:
        issues.append(f"bad-attack-target: {instance.attack_target} not in 1..{n}")
    if not math.isfinite(instance.attack_strength):
        issues.append(f"nonfinite-attack-strength: {instance.attack_strength}")
    elif instance.attack_strength < 0.0:
        issues.append(f"negative-attack-strength: {instance.attack_strength}")

    total_machine = population.machine_mass_total
    if total_machine > n + 1e-12:
        issues.append(f"mass-overflow: machine masses sum to {total_machine} > {n}")
    if abs(population.selfish_mass - (n - total_machine)) > MASS_TOL:
        issues.append(
            f"selfish-mass-mismatch: stored {population.selfish_mass}, "
            f"expected {n - total_machine}")
    for k, mass in enumerate(population.machine_masses, start=1):
        if not mass > 0.0:  # NaN included
            issues.append(f"nonpositive-machine-mass: machine {k} has mass {mass}")
    for k, access in enumerate(population.machine_access, start=1):
        if not access:
            issues.append(f"empty-access: machine {k}")
        for i in sorted(access):
            if not 1 <= i <= n:
                issues.append(f"bad-server-index: machine {k} references server {i}")
    if not population.selfish_access:
        issues.append("empty-access: selfish population")
    for i in sorted(population.selfish_access):
        if not 1 <= i <= n:
            issues.append(f"bad-server-index: selfish population references server {i}")
    return issues
