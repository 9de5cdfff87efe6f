"""Property tests: the fused joint pass equals the per-part weighted sum.

``JointObjective.value_many`` evaluates every coverage/link/security/
powering leaf from one shared phasor instead of looping over its parts;
these properties pin that the losses stay bit-identical to that loop
for any mix of parts, point counts, antenna counts and chunk sizes, and
that parts without a fused kernel take the per-part fallback.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import LinearChannelForm
from repro.orchestrator.objectives import (
    CoverageObjective,
    JointObjective,
    LocalizationObjective,
    PoweringObjective,
)
from repro.services.security import security_objective

E = 12


def per_part(objective, batch):
    """The per-part weighted sum the fused pass replaces (recursive)."""
    if type(objective) is not JointObjective:
        return np.asarray(objective.value_many(batch))
    total = np.zeros(batch.shape[0])
    for part, weight in objective.parts:
        total += weight * per_part(part, batch)
    return total


def spy(objective, calls):
    """Count direct ``value_many`` calls on one part."""
    inner = objective.value_many

    def counted(batch):
        calls.append(objective)
        return inner(batch)

    objective.value_many = counted
    return objective


def build_joint(rng, k, m, with_localization, odd_amplitudes, calls):
    coeffs = 1e-3 * (rng.normal(size=(k, m, E)) + 1j * rng.normal(size=(k, m, E)))
    offset = 1e-4 * (rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)))
    base = LinearChannelForm("s", coeffs, offset)
    amps = rng.uniform(0.3, 1.0, E)
    parts = [
        (CoverageObjective(base.restricted(range(k)), amplitudes=amps), 0.4),
        (CoverageObjective(base.restricted([k - 1]), amplitudes=amps), 0.3),
        (security_objective(base.restricted([0, 1]), [0], [1], amplitudes=amps), 0.2),
        (PoweringObjective(base.restricted([0]), amplitudes=amps), 0.1),
    ]
    for objective, _ in parts + parts[2][0].parts:
        if type(objective) is not JointObjective:
            spy(objective, calls["fused"])
    if with_localization:
        predictions = rng.normal(size=(3, m, E)) + 1j * rng.normal(size=(3, m, E))
        loc = LocalizationObjective(
            base.restricted([0, 1]),
            predictions=predictions,
            true_angle_indices=[0, 2],
            amplitudes=amps,
        )
        parts.append((spy(loc, calls["fallback"]), 0.25))
    if odd_amplitudes:
        other = CoverageObjective(base, amplitudes=rng.uniform(0.3, 1.0, E))
        parts.append((spy(other, calls["fallback"]), 0.15))
    return JointObjective(parts)


@given(
    seed=st.integers(0, 10 ** 6),
    k=st.integers(2, 9),
    m=st.integers(1, 5),
    rows=st.integers(1, 40),
    chunk=st.integers(1, 16),
    with_localization=st.booleans(),
    odd_amplitudes=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_fused_joint_matches_per_part_sum(
    seed, k, m, rows, chunk, with_localization, odd_amplitudes
):
    rng = np.random.default_rng(seed)
    calls = {"fused": [], "fallback": []}
    joint = build_joint(rng, k, m, with_localization, odd_amplitudes, calls)
    batch = rng.uniform(-np.pi, np.pi, size=(rows, E))
    for start in range(0, rows, chunk):
        rows_chunk = batch[start:start + chunk]
        fused = joint.value_many(rows_chunk)
        assert not calls["fused"], "a fusable leaf took the per-part path"
        assert len(calls["fallback"]) == with_localization + odd_amplitudes
        assert np.array_equal(fused, per_part(joint, rows_chunk))
        calls["fused"].clear()
        calls["fallback"].clear()

