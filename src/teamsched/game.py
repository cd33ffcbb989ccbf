"""Static game description for attacked parallel-server scheduling.

A system has ``n`` identical-intercept servers, a total job mass of ``n``
(one unit per server), and an additive attack that inflates the delay of a
single server by a constant. Schedulers are either machines (which minimize
the mean system delay) or selfish jobs (which minimize their own delay).
This module holds the value types shared by every solver, the one
polynomial evaluator, the one sum of masses from outside input, the
delay / system-cost primitives and the exact-potential gate.

Server indices are 1-based in every public interface; server 1 is the
conventional attack target.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property

#: absolute slack for scaled-simplex membership of a load profile
MASS_TOL = 1e-9


class ValidationError(ValueError):
    """A profile, instance, or population violates a model invariant."""


def _as_floats(values: Iterable[float]) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def as_count(value: float, what: str) -> int:
    """``value`` as an ``int``; a value that is not an integer (2.5, NaN, inf,
    True) raises ``ValueError`` naming ``what``, and an integral float passes."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def total_mass(values: Iterable[float]) -> float:
    """Exactly rounded sum (``math.fsum``) of masses or loads from outside
    input. A sum past the float range counts as ``inf`` and ``inf - inf``
    as NaN, which every mass check rejects."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def horner(coefficients: Sequence[float], x: float) -> tuple[float, float]:
    """Value and slope at ``x`` of the polynomial with the given coefficients,
    constant first."""
    value = slope = 0.0
    for c in reversed(coefficients):
        slope = slope * x + value
        value = value * x + c
    return value, slope


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
        return horner(self.coefficients, x)[0]


@dataclass(frozen=True)
class GameInstance:
    """``n`` servers with polynomial delays and a single additive attack.

    The total job mass is fixed to ``n`` by the model. ``attack_target`` is
    1-based; ``attack_strength`` is the constant added to that server's delay.
    Every way of building one (``replace`` included) checks the attack: a
    target that is not an integer raises ``ValueError``, any other bad
    attack :class:`ValidationError` with its code.
    """

    n: int
    delays: tuple[DelayFunction, ...]
    attack_target: int = 1
    attack_strength: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_count(self.n, "server count"))
        if self.n < 1:
            raise ValueError(f"server count must be positive, got {self.n}")
        delays = tuple(
            d if isinstance(d, DelayFunction) else DelayFunction(_as_floats(d))
            for d in self.delays
        )
        if len(delays) != self.n:
            raise ValueError(f"expected {self.n} delay functions, got {len(delays)}")
        object.__setattr__(self, "delays", delays)
        target = as_count(self.attack_target, "attack target")
        strength = float(self.attack_strength)
        object.__setattr__(self, "attack_target", target)
        object.__setattr__(self, "attack_strength", strength)
        if not 1 <= target <= self.n:
            raise ValidationError(f"bad-attack-target: {target} not in 1..{self.n}")
        if not math.isfinite(strength):
            raise ValidationError(f"nonfinite-attack-strength: {strength}")
        if strength < 0.0:
            raise ValidationError(f"negative-attack-strength: {strength}")
        if delays[target - 1].intercept + strength == math.inf:
            raise ValidationError(f"attack-overflow: strength {strength} makes server "
                                  f"{target}'s delay at load 0 infinite")

    @classmethod
    def linear(cls, n: int, attack_strength: float = 0.0, attack_target: int = 1) -> "GameInstance":
        """Identical unit-slope linear servers, ``tau_i(x) = x``."""
        return cls.identical(n, (0.0, 1.0), attack_strength, attack_target)

    @classmethod
    def identical(cls, n: int, coefficients: Sequence[float],
                  attack_strength: float = 0.0, attack_target: int = 1) -> "GameInstance":
        """All servers sharing one delay polynomial."""
        f = DelayFunction(_as_floats(coefficients))
        return cls(n, (f,) * as_count(n, "server count"), attack_target, attack_strength)

    def attack_bonus(self, server: int) -> float:
        """Delay offset suffered at 1-based ``server`` under the attack."""
        return self.attack_strength if server == self.attack_target else 0.0

    @cached_property
    def attack_offsets(self) -> tuple[float, ...]:
        """:meth:`attack_bonus` of every server, in server order."""
        return tuple(self.attack_bonus(i) for i in range(1, self.n + 1))

    @cached_property
    def delay_coefficients(self) -> tuple[tuple[float, ...], ...]:
        """Every server's delay coefficients, in server order."""
        return tuple(d.coefficients for d in self.delays)

    @cached_property
    def marginal_coefficients(self) -> tuple[tuple[float, ...], ...]:
        """Every server's marginal-cost coefficients, in server order."""
        return tuple(d.marginal_coefficients for d in self.delays)

    def cost(self, loads: Sequence[float]) -> float:
        """Mean delay of a raw load vector; trusts the caller on feasibility
        but raises ``ValueError`` on a vector of the wrong length.

        Each server adds ``x * (tau(x) + attack)``, its delay's value by
        :func:`horner` on :attr:`delay_coefficients`, the same bits as
        ``DelayFunction.__call__``.
        """
        if len(loads) != self.n:
            raise ValueError(f"cost needs {self.n} loads, one per server, got {len(loads)}")
        total = 0.0
        for c, a, x in zip(self.delay_coefficients, self.attack_offsets, loads):
            total += x * (horner(c, x)[0] + a)
        return total / self.n


def _has_potential(instance: GameInstance) -> bool:
    """Is every team equilibrium's cost the same, by an exact potential?

    True iff every delay is ``b_i + c_i x**d`` (coefficients
    ``(b_i, 0, .., 0, c_i)``) with ``c_i > 0`` and one common degree
    ``d >= 1``. Then, with machine mass ``m_i``, selfish mass ``s_i``, load
    ``x_i = m_i + s_i`` and attack offset ``a_i``, the function

        Phi = sum_i c_i x_i**(d+1) + sum_i (b_i + a_i) m_i + (d+1) sum_i (b_i + a_i) s_i

    is an exact potential of the team game (Monderer & Shapley 1996;
    Sandholm 2001): ``dPhi/dm_i`` is server i's attacked marginal cost and
    ``dPhi/ds_i`` is ``d+1`` times its attacked delay. So each group's
    equilibrium condition (machines equalise marginal costs, selfish jobs
    delays, over their access sets) is the KKT condition of Phi on that
    group's block. The constraints (each group's mass over its access set)
    are separate per block, so every team equilibrium is a KKT point of the
    convex Phi over the whole feasible set, hence a minimiser of Phi. Phi is
    strictly convex in the aggregate loads x, since ``c_i > 0`` and
    ``d >= 1``, so every minimiser has the same x, and the team cost depends
    on x only. Random restarts cannot find a worse equilibrium. Mixed
    degrees, extra terms such as ``x + x**2`` and constant servers fall
    outside this argument.
    """
    degree = instance.delays[0].degree
    return degree >= 1 and all(
        f.degree == degree and f.coefficients[-1] > 0.0 and not any(f.coefficients[1:-1])
        for f in instance.delays)


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
        mass = total_mass(loads)
        if abs(mass - len(loads)) > MASS_TOL:
            raise ValidationError(
                f"profile mass {mass!r} differs from required {len(loads)} by more than {MASS_TOL}")
        object.__setattr__(self, "loads", loads)

    @classmethod
    def from_raw(cls, loads: Sequence[float]) -> "LoadProfile":
        """Rescale to exact mass before constructing.

        A NaN or infinite load raises, and so does a negative one or a sum
        that overflows.
        """
        raw = _as_floats(loads)
        if any(not math.isfinite(x) for x in raw):
            raise ValidationError(f"non-finite load in profile: {raw}")
        s = total_mass(raw)
        n = len(raw)
        if not 0.0 < s < math.inf:
            raise ValidationError(f"cannot normalize a load vector of mass {s!r}")
        return cls(tuple(x * (n / s) for x in raw))

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
    if len(profile) != instance.n:
        raise ValidationError(
            f"profile has {len(profile)} servers, instance has {instance.n}")
    if not isinstance(profile, LoadProfile):
        profile = LoadProfile(profile)
    return instance.cost(profile.loads)


@dataclass(frozen=True)
class SchedulerPopulation:
    """Machine masses and access sets of an ``n``-server system; the
    selfish jobs hold what the machines leave of the total mass ``n``.

    ``machine_access[k]`` and ``selfish_access`` are sets of 1-based server
    indices. Every way of building one (``replace`` included) checks it: a
    count or index that is not an integer raises ``ValueError``, any broken
    mass or access rule :class:`ValidationError` with every violation's
    code. :func:`validate` pairs it with an instance.
    """

    n: int
    machine_masses: tuple[float, ...]
    machine_access: tuple[frozenset[int], ...]
    selfish_access: frozenset[int]

    def __post_init__(self) -> None:
        n = as_count(self.n, "server count")
        masses = _as_floats(self.machine_masses)
        access = tuple(frozenset(as_count(i, "server index") for i in a)
                       for a in self.machine_access)
        if len(masses) != len(access):
            raise ValueError(
                f"{len(masses)} machine masses but {len(access)} access sets")
        selfish = frozenset(as_count(i, "server index") for i in self.selfish_access)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "machine_masses", masses)
        object.__setattr__(self, "machine_access", access)
        object.__setattr__(self, "selfish_access", selfish)
        issues: list[str] = []
        total_machine = self.machine_mass_total
        if total_machine > n + 1e-12:
            issues.append(f"mass-overflow: machine masses sum to {total_machine} > {n}")
        for k, mass in enumerate(masses, start=1):
            if not mass > 0.0:  # NaN included
                issues.append(f"nonpositive-machine-mass: machine {k} has mass {mass}")
        groups = [(f"machine {k}", a) for k, a in enumerate(access, start=1)]
        for who, servers in groups + [("selfish population", selfish)]:
            if not servers:
                issues.append(f"empty-access: {who}")
            issues += [f"bad-server-index: {who} references server {i}"
                       for i in sorted(servers) if not 1 <= i <= n]
        if issues:
            raise ValidationError("; ".join(issues))

    @classmethod
    def for_instance(cls, n: int,
                     machines: Sequence[tuple[float, Iterable[int] | None]] = (),
                     selfish_access: Iterable[int] | None = None) -> "SchedulerPopulation":
        """Build a population for an ``n``-server instance.

        ``machines`` is a sequence of ``(mass, access)`` pairs; ``None`` access
        means every server. The selfish mass is whatever the machines leave.
        """
        n = as_count(n, "server count")
        everything = frozenset(range(1, n + 1))
        masses = tuple(float(m) for m, _ in machines)
        access = tuple(everything if a is None else a for _, a in machines)
        selfish = everything if selfish_access is None else selfish_access
        return cls(n, masses, access, selfish)

    @classmethod
    def full_access(cls, n: int, machine_mass: float) -> "SchedulerPopulation":
        """One full-access machine of ``machine_mass``; a zero mass means no
        machines."""
        if not machine_mass >= 0.0:
            raise ValueError(f"machine mass must be nonnegative, got {machine_mass}")
        return cls.for_instance(n, ((machine_mass, None),) if machine_mass > 0.0 else ())

    def at_mass(self, r: float) -> "SchedulerPopulation":
        """The population with its machine masses scaled in proportion to
        total ``r``, access sets kept; ``r == 0`` drops the machines.

        A negative or NaN ``r`` raises ``ValueError``, and so does a positive
        ``r`` on a population with no machines to scale.
        """
        if not r >= 0.0:
            raise ValueError(f"machine mass must be nonnegative, got {r}")
        if r == 0.0:
            return replace(self, machine_masses=(), machine_access=())
        if not self.machine_masses:
            raise ValueError(f"cannot scale to machine mass {r}: the population has no machines")
        scale = r / self.machine_mass_total
        return replace(self, machine_masses=tuple(m * scale for m in self.machine_masses))

    @property
    def machine_count(self) -> int:
        return len(self.machine_masses)

    @property
    def machine_mass_total(self) -> float:
        return total_mass(self.machine_masses)

    @property
    def selfish_mass(self) -> float:
        """What the machines leave of the total mass ``n``."""
        return self.n - self.machine_mass_total


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
        """Per-server sum of every block, by :func:`total_mass`."""
        return tuple(total_mass(column) for column in zip(self.selfish, *self.per_machine))


def validate(instance: GameInstance, population: SchedulerPopulation) -> list[str]:
    """Check the population against the instance; return violations as data.

    Each entry is ``"code: detail"`` naming the broken invariant. An empty
    list means the pair is well-formed. The instance checks its own attack
    and the population its own masses and access sets when each is built,
    so only the pairing is left to check.
    """
    if population.n != instance.n:
        return [f"server-count-mismatch: population has {population.n} servers, "
                f"instance has {instance.n}"]
    return []
