"""Differentiable service objectives over surface phase configurations.

Every objective is a real-valued loss of the phase vector ``φ`` of one
surface, evaluated through a :class:`LinearChannelForm`
(``h = C·x + d`` with ``x = a·e^{jφ}``).  Gradients are *analytic*
(Wirtinger calculus), so optimizing a 4096-element surface costs one
matrix pass per step instead of 4096 finite differences.

Conventions: for a real loss ``L`` of complex tensors, ``∂L/∂z`` is the
Wirtinger partial treating ``z̄`` as independent; the chain to phases is
``∂L/∂φ_e = 2·Re(j·x_e·Σ ∂L/∂h · ∂h/∂x_e) = −2·Im(x_e·Σ ∂L/∂h·C_e)``.

The localization loss is the paper's §4 formulation: "the cross-entropy
between the estimated and true AoA" with the AoA spectrum computed by
matched-filter correlation of the AP-observed channel against per-angle
predictions (md-Track style).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..channel.model import LinearChannelForm
from ..core.errors import OptimizationError
from ..em.noise import LinkBudget

_LN2 = math.log(2.0)


class Objective:
    """A differentiable loss over one surface's phase vector."""

    #: Number of phase variables.
    dim: int

    def value(self, phases: np.ndarray) -> float:
        """Loss at a phase vector."""
        return self.value_and_gradient(phases)[0]

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        """Losses for a batch of phase vectors, shape ``(P,)``.

        The population-evaluation hook the value-only optimizers route
        through.  The base implementation loops :meth:`value`; the
        ``LinearChannelForm``-backed objectives override it with one
        vectorized pass over the whole batch.
        """
        batch = self._check_batch(phases_batch)
        return np.array([self.value(row) for row in batch])

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        """Loss and its analytic gradient."""
        raise NotImplementedError

    def _check(self, phases: np.ndarray) -> np.ndarray:
        phases = np.asarray(phases, dtype=float).reshape(-1)
        if phases.shape != (self.dim,):
            raise OptimizationError(
                f"phase vector has shape {phases.shape}, expected ({self.dim},)"
            )
        return phases

    def _check_batch(self, phases_batch: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(np.asarray(phases_batch, dtype=float))
        if batch.ndim != 2 or batch.shape[1] != self.dim:
            raise OptimizationError(
                f"phase batch has shape {batch.shape}, expected (P, {self.dim})"
            )
        return batch


def _phase_gradient(x: np.ndarray, accumulated: np.ndarray) -> np.ndarray:
    """``∂L/∂φ`` from the Wirtinger cogradient accumulated against x."""
    return -2.0 * np.imag(x * accumulated)


# Loss-from-channel math shared by the per-objective, fused-joint and
# stacked evaluations; reductions run over the last axis.


def _power(h: np.ndarray) -> np.ndarray:
    """Per-point MRT power ``‖h_k‖²`` (reduces the antenna axis)."""
    return np.sum(np.abs(h) ** 2, axis=-1)


def _coverage_loss(power: np.ndarray, weights, tx, noise) -> np.ndarray:
    """Negative weighted Shannon capacity from per-point power."""
    snr = tx * power / noise
    return -np.sum(weights * np.log2(1.0 + snr), axis=-1)


def _powering_loss(power: np.ndarray) -> np.ndarray:
    """Negative dB mean power from per-point power."""
    return -10.0 * np.log10(np.mean(power, axis=-1) + 1e-30)


@dataclass(frozen=True)
class CoverageGoal:
    """Parameters of a coverage/link objective.

    Attributes:
        budget: link budget (tx power, bandwidth, noise).
        weights: optional per-point weights (defaults to uniform).
    """

    budget: LinkBudget
    weights: Optional[np.ndarray] = None


class CoverageObjective(Objective):
    """Negative mean Shannon capacity across evaluation points.

    The paper's coverage-task loss: "the negative sum of link capacity
    across different locations".  Capacity uses transmit MRT across the
    AP array: ``SNR_k = P_tx ‖h_k‖² / σ²``.
    """

    def __init__(
        self,
        form: LinearChannelForm,
        amplitudes: Optional[np.ndarray] = None,
        goal: Optional[CoverageGoal] = None,
    ):
        self.form = form
        self.dim = form.num_elements
        self.amplitudes = (
            np.ones(self.dim)
            if amplitudes is None
            else np.asarray(amplitudes, dtype=float).reshape(-1)
        )
        if self.amplitudes.shape != (self.dim,):
            raise OptimizationError("amplitudes shape mismatch")
        self.goal = goal or CoverageGoal(budget=LinkBudget())
        k = form.num_points
        if self.goal.weights is None:
            self._weights = np.full(k, 1.0 / k)
        else:
            w = np.asarray(self.goal.weights, dtype=float).reshape(-1)
            if w.shape != (k,) or np.any(w < 0):
                raise OptimizationError("weights must be non-negative, one per point")
            total = w.sum()
            if total <= 0:
                raise OptimizationError("weights must not all be zero")
            self._weights = w / total

    def snr_db(self, phases: np.ndarray) -> np.ndarray:
        """Per-point SNR (dB) at a phase vector — evaluation helper."""
        phases = self._check(phases)
        x = self.amplitudes * np.exp(1j * phases)
        h = self.form.evaluate(x)
        gains = np.sum(np.abs(h) ** 2, axis=1)
        return np.array([self.goal.budget.snr_db(g) for g in gains])

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        batch = self._check_batch(phases_batch)
        budget = self.goal.budget
        x = self.amplitudes[None, :] * np.exp(1j * batch)  # (P, E)
        power = _power(self.form.evaluate_many(x))  # (P, K)
        return _coverage_loss(
            power, self._weights, budget.tx_power_watts, budget.noise_watts
        )

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        phases = self._check(phases)
        budget = self.goal.budget
        x = self.amplitudes * np.exp(1j * phases)
        h = self.form.evaluate(x)  # (K, M)
        power = np.sum(np.abs(h) ** 2, axis=1)  # ‖h_k‖²
        snr = budget.tx_power_watts * power / budget.noise_watts
        loss = -float(np.sum(self._weights * np.log2(1.0 + snr)))
        # ∂loss/∂P_k, then ∂P_k/∂φ via the linear form.
        dloss_dpower = -(
            self._weights
            * (budget.tx_power_watts / budget.noise_watts)
            / ((1.0 + snr) * _LN2)
        )
        # ∂P_k/∂h_km (Wirtinger) = conj(h_km); accumulate through C.
        w_h = dloss_dpower[:, None] * np.conj(h)  # (K, M)
        acc = np.einsum("km,kme->e", w_h, self.form.coeffs)
        return loss, _phase_gradient(x, acc)


class PoweringObjective(Objective):
    """Negative mean harvested power (dB-scaled) at charging points.

    Wireless powering cares about raw incident power, not capacity;
    the dB scaling keeps gradients well-conditioned across the huge
    dynamic range of RF energy harvesting.
    """

    def __init__(
        self,
        form: LinearChannelForm,
        amplitudes: Optional[np.ndarray] = None,
        budget: Optional[LinkBudget] = None,
    ):
        self.form = form
        self.dim = form.num_elements
        self.amplitudes = (
            np.ones(self.dim)
            if amplitudes is None
            else np.asarray(amplitudes, dtype=float).reshape(-1)
        )
        self.budget = budget or LinkBudget()

    def harvested_dbm(self, phases: np.ndarray) -> np.ndarray:
        """Per-point harvested power (dBm) — evaluation helper."""
        from ..core.units import watts_to_dbm

        phases = self._check(phases)
        x = self.amplitudes * np.exp(1j * phases)
        h = self.form.evaluate(x)
        gains = np.sum(np.abs(h) ** 2, axis=1)
        return np.array(
            [watts_to_dbm(self.budget.tx_power_watts * g) for g in gains]
        )

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        batch = self._check_batch(phases_batch)
        x = self.amplitudes[None, :] * np.exp(1j * batch)
        return _powering_loss(_power(self.form.evaluate_many(x)))

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        phases = self._check(phases)
        x = self.amplitudes * np.exp(1j * phases)
        h = self.form.evaluate(x)
        power = np.sum(np.abs(h) ** 2, axis=1)
        mean_power = float(np.mean(power)) + 1e-30
        loss = -10.0 * math.log10(mean_power)
        # d(-10·log10(mean P))/dP_k = -10 / (ln10 · mean P · K)
        k = self.form.num_points
        coef = -10.0 / (math.log(10.0) * mean_power * k)
        w_h = coef * np.conj(h)
        acc = np.einsum("km,kme->e", w_h, self.form.coeffs)
        return loss, _phase_gradient(x, acc)


class LocalizationObjective(Objective):
    """Softmax cross-entropy between the estimated and true AoA.

    For each client location ``k`` the AP observes ``h_k = C_k·x + d_k``.
    The estimator correlates ``h_k`` against per-angle predictions
    ``ĥ_i = P_i·x`` (matched filter over a candidate-angle grid) and
    normalizes into a spectrum ``S_ki ∈ [0,1]``; the loss is the mean
    cross-entropy of ``softmax(β·S_k)`` against the true angle index.
    """

    def __init__(
        self,
        form: LinearChannelForm,
        predictions: np.ndarray,
        true_angle_indices: Sequence[int],
        amplitudes: Optional[np.ndarray] = None,
        beta: float = 20.0,
        epsilon: float = 1e-18,
    ):
        self.form = form
        self.dim = form.num_elements
        self.predictions = np.asarray(predictions)  # (I, M, E)
        if (
            self.predictions.ndim != 3
            or self.predictions.shape[1] != form.num_antennas
            or self.predictions.shape[2] != form.num_elements
        ):
            raise OptimizationError(
                f"predictions shape {self.predictions.shape} incompatible "
                f"with form (·, {form.num_antennas}, {form.num_elements})"
            )
        self.true_idx = np.asarray(true_angle_indices, dtype=int)
        if self.true_idx.shape != (form.num_points,):
            raise OptimizationError("need one true angle index per point")
        num_angles = self.predictions.shape[0]
        if np.any(self.true_idx < 0) or np.any(self.true_idx >= num_angles):
            raise OptimizationError("true angle index out of range")
        self.amplitudes = (
            np.ones(self.dim)
            if amplitudes is None
            else np.asarray(amplitudes, dtype=float).reshape(-1)
        )
        if beta <= 0:
            raise OptimizationError("softmax temperature beta must be positive")
        self.beta = beta
        self.epsilon = epsilon

    # ------------------------------------------------------------------

    def _forward(self, x: np.ndarray):
        h = self.form.evaluate(x)  # (K, M)
        h_hat = self.predictions @ x  # (I, M)
        n_h = np.sum(np.abs(h) ** 2, axis=1)  # (K,)
        n_i = np.sum(np.abs(h_hat) ** 2, axis=1)  # (I,)
        r = np.conj(h) @ h_hat.T  # (K, I)
        denom = n_h[:, None] * n_i[None, :] + self.epsilon
        spectrum = np.abs(r) ** 2 / denom  # (K, I), in [0, 1]
        z = self.beta * spectrum
        z -= z.max(axis=1, keepdims=True)
        expz = np.exp(z)
        p = expz / expz.sum(axis=1, keepdims=True)
        return h, h_hat, n_h, n_i, r, denom, spectrum, p

    def spectrum(self, phases: np.ndarray) -> np.ndarray:
        """The (K, I) normalized AoA spectrum — the estimator's view."""
        phases = self._check(phases)
        x = self.amplitudes * np.exp(1j * phases)
        return self._forward(x)[6]

    def estimated_angle_indices(self, phases: np.ndarray) -> np.ndarray:
        """Argmax AoA estimate per point."""
        return np.argmax(self.spectrum(phases), axis=1)

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        batch = self._check_batch(phases_batch)
        x = self.amplitudes[None, :] * np.exp(1j * batch)  # (P, E)
        h = self.form.evaluate_many(x)  # (P, K, M)
        h_hat = np.tensordot(x, self.predictions, axes=([1], [2]))  # (P, I, M)
        n_h = np.sum(np.abs(h) ** 2, axis=2)  # (P, K)
        n_i = np.sum(np.abs(h_hat) ** 2, axis=2)  # (P, I)
        r = np.einsum("pkm,pim->pki", np.conj(h), h_hat)  # (P, K, I)
        denom = n_h[:, :, None] * n_i[:, None, :] + self.epsilon
        spectrum = np.abs(r) ** 2 / denom
        z = self.beta * spectrum
        z -= z.max(axis=2, keepdims=True)
        expz = np.exp(z)
        p = expz / expz.sum(axis=2, keepdims=True)
        k = self.form.num_points
        picked = p[:, np.arange(k), self.true_idx]  # (P, K)
        return -np.mean(np.log(picked + 1e-300), axis=1)

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        phases = self._check(phases)
        x = self.amplitudes * np.exp(1j * phases)
        h, h_hat, n_h, n_i, r, denom, spectrum, p = self._forward(x)
        k = self.form.num_points
        one_hot = np.zeros_like(p)
        one_hot[np.arange(k), self.true_idx] = 1.0
        loss = float(-np.mean(np.log(p[np.arange(k), self.true_idx] + 1e-300)))
        # dL/dS (softmax cross-entropy), averaged over points.
        g_s = self.beta * (p - one_hot) / k  # (K, I)
        # ∂S/∂h and ∂S/∂ĥ (Wirtinger partials):
        #   ∂S_ki/∂h_km = (r_ki·conj(ĥ_im) − S_ki·N_i·conj(h_km)) / D_ki
        #   ∂S_ki/∂ĥ_im = (conj(r_ki)·conj(h_km) − S_ki·N_h·conj(ĥ_im)) / D_ki
        ratio = g_s / denom
        w_h = (ratio * r) @ np.conj(h_hat)  # (K, M)
        w_h -= np.conj(h) * np.sum(
            g_s * spectrum * n_i[None, :] / denom, axis=1
        )[:, None]
        w_hat = (ratio * np.conj(r)).T @ np.conj(h)  # (I, M)
        w_hat -= np.conj(h_hat) * np.sum(
            g_s * spectrum * n_h[:, None] / denom, axis=0
        )[:, None]
        acc = np.einsum("km,kme->e", w_h, self.form.coeffs)
        acc += np.einsum("im,ime->e", w_hat, self.predictions)
        return loss, _phase_gradient(x, acc)


class JointObjective(Objective):
    """Weighted sum of objectives sharing one phase vector.

    The paper's multitasking: "we minimize the sum of localization loss
    and coverage loss" with a single shared surface configuration.
    :meth:`value_many` evaluates the part tree in one fused pass,
    bit-identical to summing each part's own ``value_many``.
    """

    def __init__(self, parts: Sequence[Tuple[Objective, float]]):
        if not parts:
            raise OptimizationError("joint objective needs at least one part")
        dims = {obj.dim for obj, _ in parts}
        if len(dims) != 1:
            raise OptimizationError(f"parts disagree on dimension: {dims}")
        self.parts: List[Tuple[Objective, float]] = list(parts)
        self.dim = dims.pop()
        self._plan: Optional[tuple] = None  # built on first value_many

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        total = 0.0
        grad = np.zeros(self.dim)
        for objective, weight in self.parts:
            value, g = objective.value_and_gradient(phases)
            total += weight * value
            grad += weight * g
        return total, grad

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        batch = self._check_batch(phases_batch)
        if self._plan is None:
            self._plan = _fused_plan(self)
        amplitudes, forms, tree = self._plan
        powers = []
        if forms:
            x = amplitudes * np.exp(1j * batch)  # one phasor for all leaves
            powers = [_power(form.evaluate_many(x)) for form in forms]
        return _fused_value(tree, batch, powers)


# ----------------------------------------------------------------------
# fused joint evaluation
# ----------------------------------------------------------------------
#
# The plan walks the part tree once.  Coverage/link/security/powering
# leaves sharing the first such leaf's amplitudes index a list of
# distinct forms; the rest (localization, user objectives, other
# amplitudes) call their own ``value_many``.  Per chunk: one phasor, one
# GEMM + power per distinct form (a security pair's leaves share one),
# then the leaf losses summed through the original weight tree.
# Bit-identical to the per-part loop: each form's own ``evaluate_many``
# on the same phasor bits, the same ``_power``/``_*_loss`` reductions,
# and ``zeros + w·v`` per joint node in part order.  (One wide GEMM over
# all forms is not: BLAS computes the columns past a narrow GEMM's last
# full kernel block with another kernel.)  Plain tuples from
# module functions, not closures: no reference cycles to keep
# restricted forms alive until the cyclic GC runs.


def _fused_plan(joint: "JointObjective") -> tuple:
    """``(amplitudes, forms, tree)`` for a joint's fused pass."""
    forms: dict = {}  # id(form) -> (index, form), in first-use order
    reference: list = []  # the shared amplitudes, once a leaf fuses
    tree = _fused_node(joint, forms, reference)
    amplitudes = reference[0] if reference else None
    return amplitudes, [form for _, form in forms.values()], tree


def _fused_node(objective: Objective, forms: dict, reference: list) -> tuple:
    """One fused-tree node; fused leaves register their form in ``forms``."""
    kind = type(objective)
    if kind is JointObjective:
        parts = objective.parts
        return ("joint", [(_fused_node(p, forms, reference), w) for p, w in parts])
    if kind not in (CoverageObjective, PoweringObjective):
        return ("fallback", objective)
    if not reference:
        reference.append(objective.amplitudes)
    elif objective.amplitudes.tobytes() != reference[0].tobytes():
        return ("fallback", objective)
    index = forms.setdefault(id(objective.form), (len(forms), objective.form))[0]
    if kind is PoweringObjective:
        return ("powering", index)
    budget = objective.goal.budget
    tx, noise = budget.tx_power_watts, budget.noise_watts
    return ("coverage", index, objective._weights, tx, noise)


def _fused_value(node: tuple, batch: np.ndarray, powers: list) -> np.ndarray:
    """Evaluate one fused-tree node with the per-part loop's exact ops."""
    kind = node[0]
    if kind == "joint":
        total = np.zeros(batch.shape[0])
        for child, weight in node[1]:
            total += weight * _fused_value(child, batch, powers)
        return total
    if kind == "coverage":
        _, index, weights, tx, noise = node
        return _coverage_loss(powers[index], weights, tx, noise)
    if kind == "powering":
        return _powering_loss(powers[node[1]])
    return np.asarray(node[1].value_many(batch))


# ----------------------------------------------------------------------
# stacked cross-task evaluation
# ----------------------------------------------------------------------
#
# The slotted-task loop in ``reoptimize()`` runs one optimizer per task.
# Serially, every optimizer iteration pays its own Python round trip
# through ``value_many`` — a handful of small NumPy calls per task per
# iteration.  :class:`StackedObjective` removes that multiplier: the
# per-task linear forms are stacked along a new task axis and each
# lockstep iteration's candidate batches evaluate as *one* batched
# GEMM (``np.matmul`` over ``(T, P, E) @ (T, E, K·M)``) plus one pass
# of vectorized loss math across all tasks.
#
# Determinism: a batched-matmul slice multiplies the same rows by the
# same columns (stacked copies of each form's ``contraction``) as the
# per-task GEMM inside ``LinearChannelForm.evaluate_many``, and every
# loss reduction keeps its task-local axis order, so stacked losses are
# bit-identical to per-task evaluation (asserted in
# tests/orchestrator/test_stacked.py).


def _stacked_power(amps, bts, offsets, batch: np.ndarray) -> np.ndarray:
    """Point powers ``(G, P, K)`` for per-task candidate batches ``(G, P, E)``."""
    g, p, _ = batch.shape
    _, _, k, m = offsets.shape
    x = amps[:, None, :] * np.exp(1j * batch)  # (G, P, E)
    return _power(np.matmul(x, bts).reshape(g, p, k, m) + offsets)


class _CoverageStack:
    """Stackable kernel for one :class:`CoverageObjective`."""

    __slots__ = ("key", "amplitudes", "bt", "offset", "weights", "tx", "noise")

    def __init__(self, obj: "CoverageObjective"):
        form = obj.form
        self.key = ("coverage", form.num_points, form.num_antennas, form.num_elements)
        self.amplitudes = obj.amplitudes
        self.bt = form.contraction
        self.offset = form.offset
        self.weights = obj._weights
        self.tx = obj.goal.budget.tx_power_watts
        self.noise = obj.goal.budget.noise_watts

    @staticmethod
    def pack(kernels: Sequence["_CoverageStack"]) -> tuple:
        """Stack per-task operands once; reused across solver iterations."""
        return _PoweringStack.pack(kernels) + (
            np.stack([kern.weights for kern in kernels])[:, None, :],
            np.array([kern.tx for kern in kernels])[:, None, None],
            np.array([kern.noise for kern in kernels])[:, None, None],
        )

    @staticmethod
    def evaluate_packed(ops: tuple, batch: np.ndarray) -> np.ndarray:
        amps, bts, offsets, weights, tx, noise = ops
        power = _stacked_power(amps, bts, offsets, batch)
        return _coverage_loss(power, weights, tx, noise)


class _PoweringStack:
    """Stackable kernel for one :class:`PoweringObjective`."""

    __slots__ = ("key", "amplitudes", "bt", "offset")

    def __init__(self, obj: "PoweringObjective"):
        form = obj.form
        self.key = ("powering", form.num_points, form.num_antennas, form.num_elements)
        self.amplitudes = obj.amplitudes
        self.bt = form.contraction
        self.offset = form.offset

    @staticmethod
    def pack(kernels: Sequence["_PoweringStack"]) -> tuple:
        """Stack per-task operands once; reused across solver iterations."""
        return (
            np.stack([kern.amplitudes for kern in kernels]),
            np.stack([kern.bt for kern in kernels]),
            np.stack([kern.offset for kern in kernels])[:, None, :, :],
        )

    @staticmethod
    def evaluate_packed(ops: tuple, batch: np.ndarray) -> np.ndarray:
        return _powering_loss(_stacked_power(*ops, batch))


class _JointStack:
    """Stackable kernel for a :class:`JointObjective` of stackable parts."""

    __slots__ = ("key", "subkernels", "weights")

    def __init__(self, obj: "JointObjective"):
        self.subkernels = []
        self.weights = []
        subkeys = []
        for part, weight in obj.parts:
            kernel = _stack_kernel(part)
            if kernel is None:
                raise OptimizationError("joint part is not stackable")
            self.subkernels.append(kernel)
            self.weights.append(float(weight))
            subkeys.append(kernel.key)
        self.key = ("joint", tuple(subkeys))

    @staticmethod
    def pack(kernels: Sequence["_JointStack"]) -> tuple:
        """Per-position packed sub-operands plus the stacked weights."""
        packed = []
        for pos in range(len(kernels[0].subkernels)):
            subs = [kern.subkernels[pos] for kern in kernels]
            weights = np.array([kern.weights[pos] for kern in kernels])
            packed.append(
                (type(subs[0]), type(subs[0]).pack(subs), weights[:, None])
            )
        return tuple(packed)

    @staticmethod
    def evaluate_packed(ops: tuple, batch: np.ndarray) -> np.ndarray:
        g, p, _ = batch.shape
        total = np.zeros((g, p))
        for sub_type, sub_ops, weights in ops:
            total += weights * sub_type.evaluate_packed(sub_ops, batch)
        return total


def _stack_kernel(objective: Objective):
    """The stacked-evaluation kernel for an objective, or ``None``.

    Objectives without a kernel (localization, user-defined losses)
    still work inside a :class:`StackedObjective` — they just evaluate
    through their own ``value_many`` instead of the batched GEMM.
    """
    try:
        if type(objective) is CoverageObjective:
            return _CoverageStack(objective)
        if type(objective) is PoweringObjective:
            return _PoweringStack(objective)
        if type(objective) is JointObjective:
            return _JointStack(objective)
    except OptimizationError:
        return None
    return None


class StackedObjective(Objective):
    """Vertically stacked per-task objectives over one surface.

    Holds one objective per slotted task (all sharing the surface's
    phase dimension) and evaluates *per-task candidate batches* —
    which differ task to task — in one batched BLAS pass wherever the
    parts stack (coverage/link/powering/security losses over a
    :class:`LinearChannelForm`), falling back to per-part ``value_many``
    otherwise.  Built by the lockstep multi-task driver
    (:meth:`repro.orchestrator.optimizers.Optimizer.optimize_many`).

    This is *not* a scalar loss of one phase vector, so the scalar
    :class:`Objective` entry points raise; evaluation goes through
    :meth:`value_many_segments` / :meth:`value_chunks`.
    """

    def __init__(self, parts: Sequence[Objective]):
        if not parts:
            raise OptimizationError("stacked objective needs at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise OptimizationError(f"parts disagree on dimension: {dims}")
        self.parts: List[Objective] = list(parts)
        self.dim = dims.pop()
        self._kernels = [_stack_kernel(p) for p in self.parts]
        #: Packed operand stacks per group membership — the lockstep
        #: driver re-evaluates the same task groups every iteration, so
        #: the per-task operand stacking happens once, not per call.
        self._packed: dict = {}

    @property
    def num_parts(self) -> int:
        """T, the number of stacked tasks."""
        return len(self.parts)

    @property
    def stacked_parts(self) -> int:
        """How many parts evaluate through a batched kernel."""
        return sum(1 for k in self._kernels if k is not None)

    def value(self, phases: np.ndarray) -> float:
        raise OptimizationError(
            "stacked objectives evaluate via value_many_segments"
        )

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        raise OptimizationError(
            "stacked objectives evaluate via value_many_segments"
        )

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        raise OptimizationError(
            "stacked objectives evaluate via value_many_segments"
        )

    def value_many_segments(
        self, batches: Sequence[Optional[np.ndarray]]
    ) -> List[Optional[np.ndarray]]:
        """Losses per task for one candidate batch per task.

        ``batches[t]`` is task ``t``'s ``(P_t, E)`` candidate batch, or
        ``None`` to skip a finished task; returns one ``(P_t,)`` loss
        vector per task (``None`` where skipped), bit-identical to
        ``[self.parts[t].value_many(batches[t]) for t]``.
        """
        if len(batches) != len(self.parts):
            raise OptimizationError(
                f"{len(batches)} batches for {len(self.parts)} parts"
            )
        items = [
            (t, self.parts[t]._check_batch(b))
            for t, b in enumerate(batches)
            if b is not None
        ]
        values = self.value_chunks(items)
        out: List[Optional[np.ndarray]] = [None] * len(batches)
        for (t, _), value in zip(items, values):
            out[t] = value
        return out

    def value_chunks(
        self, items: Sequence[Tuple[int, np.ndarray]]
    ) -> List[np.ndarray]:
        """Evaluate ``(part_index, rows)`` chunks, batching across parts.

        The evaluator's distribution unit: chunks with the same kernel
        shape and row count collapse into one batched matmul; the rest
        evaluate through their part's own ``value_many``.  Results come
        back in input order.  Grouping never changes bits — a batched
        GEMM slice equals the standalone GEMM for the same operands.
        """
        results: List[Optional[np.ndarray]] = [None] * len(items)
        groups: dict = {}
        for pos, (part_index, rows) in enumerate(items):
            kernel = self._kernels[part_index]
            if kernel is None:
                results[pos] = np.atleast_1d(
                    np.asarray(self.parts[part_index].value_many(rows))
                )
                continue
            groups.setdefault((kernel.key, rows.shape[0]), []).append(
                (pos, part_index, rows)
            )
        for members in groups.values():
            kernels = [self._kernels[pi] for _, pi, _ in members]
            kind = type(kernels[0])
            cache_key = tuple(pi for _, pi, _ in members)
            ops = self._packed.get(cache_key)
            if ops is None:
                ops = kind.pack(kernels)
                self._packed[cache_key] = ops
            batch = np.stack([rows for _, _, rows in members])
            values = kind.evaluate_packed(ops, batch)
            for row, (pos, _, _) in zip(values, members):
                results[pos] = row
        return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# evaluation-spec export (process-pool backend)
# ----------------------------------------------------------------------
#
# The process backend can't share Python objects with its workers, so
# supported objectives export a *spec*: plain scalars plus tokens for
# every large array, published once into shared memory by the caller's
# ``put_array``.  Workers rebuild the objective from the spec with
# zero-copy views over the shared segments and then run the exact same
# ``value_many`` code path as the parent — bit-identity by
# construction, not by reimplementation.


def export_objective(objective: Objective, put_array) -> dict:
    """Serializable evaluation spec for a supported objective.

    ``put_array(ndarray) -> token`` publishes an array (e.g. into
    shared memory) and returns a token ``restore_objective`` can hand
    back to fetch it.  Raises :class:`OptimizationError` for objective
    types without an export (the evaluator then falls back to in-process
    evaluation).
    """
    if type(objective) is CoverageObjective:
        return {
            "kind": "coverage",
            "surface": objective.form.surface_id,
            "coeffs": put_array(objective.form.coeffs),
            "offset": put_array(objective.form.offset),
            "amplitudes": put_array(objective.amplitudes),
            "weights": (
                None
                if objective.goal.weights is None
                else put_array(np.asarray(objective.goal.weights, dtype=float))
            ),
            "budget": _export_budget(objective.goal.budget),
        }
    if type(objective) is PoweringObjective:
        return {
            "kind": "powering",
            "surface": objective.form.surface_id,
            "coeffs": put_array(objective.form.coeffs),
            "offset": put_array(objective.form.offset),
            "amplitudes": put_array(objective.amplitudes),
            "budget": _export_budget(objective.budget),
        }
    if type(objective) is LocalizationObjective:
        return {
            "kind": "localization",
            "surface": objective.form.surface_id,
            "coeffs": put_array(objective.form.coeffs),
            "offset": put_array(objective.form.offset),
            "amplitudes": put_array(objective.amplitudes),
            "predictions": put_array(objective.predictions),
            "true_idx": put_array(objective.true_idx),
            "beta": objective.beta,
            "epsilon": objective.epsilon,
        }
    if type(objective) is JointObjective:
        return {
            "kind": "joint",
            "parts": [
                [export_objective(part, put_array), float(weight)]
                for part, weight in objective.parts
            ],
        }
    if type(objective) is StackedObjective:
        return {
            "kind": "stacked",
            "parts": [
                export_objective(part, put_array) for part in objective.parts
            ],
        }
    raise OptimizationError(
        f"no evaluation spec for {type(objective).__name__}"
    )


def restore_objective(spec: dict, get_array) -> Objective:
    """Rebuild an objective from :func:`export_objective`'s spec.

    ``get_array(token) -> ndarray`` resolves array tokens (typically
    attaching shared-memory segments).  The rebuilt objective runs the
    same evaluation code as the original.
    """
    kind = spec["kind"]
    if kind == "coverage":
        weights = None if spec["weights"] is None else get_array(spec["weights"])
        return CoverageObjective(
            _restore_form(spec, get_array),
            amplitudes=get_array(spec["amplitudes"]),
            goal=CoverageGoal(
                budget=_restore_budget(spec["budget"]), weights=weights
            ),
        )
    if kind == "powering":
        return PoweringObjective(
            _restore_form(spec, get_array),
            amplitudes=get_array(spec["amplitudes"]),
            budget=_restore_budget(spec["budget"]),
        )
    if kind == "localization":
        return LocalizationObjective(
            _restore_form(spec, get_array),
            predictions=get_array(spec["predictions"]),
            true_angle_indices=get_array(spec["true_idx"]),
            amplitudes=get_array(spec["amplitudes"]),
            beta=spec["beta"],
            epsilon=spec["epsilon"],
        )
    if kind == "joint":
        return JointObjective(
            [
                (restore_objective(part, get_array), weight)
                for part, weight in spec["parts"]
            ]
        )
    if kind == "stacked":
        return StackedObjective(
            [restore_objective(part, get_array) for part in spec["parts"]]
        )
    raise OptimizationError(f"unknown evaluation spec kind {kind!r}")


def _restore_form(spec: dict, get_array) -> LinearChannelForm:
    return LinearChannelForm(
        surface_id=spec["surface"],
        coeffs=get_array(spec["coeffs"]),
        offset=get_array(spec["offset"]),
    )


def _export_budget(budget: LinkBudget) -> List[float]:
    return [budget.tx_power_dbm, budget.bandwidth_hz, budget.noise_figure_db]


def _restore_budget(fields: Sequence[float]) -> LinkBudget:
    return LinkBudget(
        tx_power_dbm=fields[0],
        bandwidth_hz=fields[1],
        noise_figure_db=fields[2],
    )


class FiniteDifferenceObjective(Objective):
    """Wrap any black-box loss with central finite differences.

    Exists for cross-checking analytic gradients in tests and for
    exotic user-defined losses; O(dim) evaluations per gradient.
    """

    def __init__(self, fn, dim: int, step: float = 1e-6):
        self._fn = fn
        self.dim = dim
        self.step = step

    def value(self, phases: np.ndarray) -> float:
        return float(self._fn(self._check(phases)))

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        phases = self._check(phases)
        base = self.value(phases)
        grad = np.zeros(self.dim)
        for e in range(self.dim):
            up = phases.copy()
            down = phases.copy()
            up[e] += self.step
            down[e] -= self.step
            grad[e] = (self._fn(up) - self._fn(down)) / (2.0 * self.step)
        return base, grad
