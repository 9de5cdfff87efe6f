"""Analytic gradients vs finite differences — the load-bearing check."""

import gc
import weakref

import numpy as np
import pytest

from repro.channel import LinearChannelForm
from repro.core.errors import OptimizationError
from repro.em import LinkBudget
from repro.orchestrator.objectives import (
    CoverageGoal,
    CoverageObjective,
    FiniteDifferenceObjective,
    JointObjective,
    LocalizationObjective,
    PoweringObjective,
)


def random_form(rng, k=4, m=2, e=6, scale=1e-4):
    coeffs = scale * (rng.normal(size=(k, m, e)) + 1j * rng.normal(size=(k, m, e)))
    offset = scale * (rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)))
    return LinearChannelForm("s", coeffs, offset)


def check_gradient(objective, phases, rtol=1e-4, atol=1e-9):
    analytic_loss, analytic_grad = objective.value_and_gradient(phases)
    fd = FiniteDifferenceObjective(objective.value, objective.dim, step=1e-6)
    fd_loss, fd_grad = fd.value_and_gradient(phases)
    assert analytic_loss == pytest.approx(fd_loss)
    scale = max(np.abs(fd_grad).max(), atol)
    assert np.allclose(analytic_grad, fd_grad, rtol=rtol, atol=rtol * scale), (
        f"analytic {analytic_grad} vs fd {fd_grad}"
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestCoverage:
    def test_gradient_matches_finite_differences(self, rng):
        form = random_form(rng)
        obj = CoverageObjective(form)
        phases = rng.uniform(0, 2 * np.pi, obj.dim)
        check_gradient(obj, phases)

    def test_gradient_with_amplitudes_and_weights(self, rng):
        form = random_form(rng)
        amplitudes = rng.uniform(0.3, 1.0, 6)
        weights = rng.uniform(0.1, 1.0, 4)
        obj = CoverageObjective(
            form,
            amplitudes=amplitudes,
            goal=CoverageGoal(budget=LinkBudget(), weights=weights),
        )
        check_gradient(obj, rng.uniform(0, 2 * np.pi, obj.dim))

    def test_loss_decreases_with_aligned_phases(self, rng):
        # Single point, no offset: aligning all coefficients is optimal.
        coeffs = 1e-4 * np.exp(
            1j * rng.uniform(0, 2 * np.pi, (1, 1, 5))
        )
        form = LinearChannelForm("s", coeffs, np.zeros((1, 1), dtype=complex))
        obj = CoverageObjective(form)
        aligned = -np.angle(coeffs[0, 0])
        random_phases = rng.uniform(0, 2 * np.pi, 5)
        assert obj.value(aligned) < obj.value(random_phases)

    def test_snr_helper_consistent(self, rng):
        form = random_form(rng)
        obj = CoverageObjective(form)
        phases = rng.uniform(0, 2 * np.pi, obj.dim)
        snrs = obj.snr_db(phases)
        assert snrs.shape == (4,)
        assert np.all(np.isfinite(snrs))

    def test_validation(self, rng):
        form = random_form(rng)
        with pytest.raises(OptimizationError):
            CoverageObjective(form, amplitudes=np.ones(3))
        with pytest.raises(OptimizationError):
            CoverageObjective(
                form, goal=CoverageGoal(budget=LinkBudget(), weights=np.ones(2))
            )
        with pytest.raises(OptimizationError):
            CoverageObjective(
                form,
                goal=CoverageGoal(budget=LinkBudget(), weights=np.zeros(4)),
            )
        obj = CoverageObjective(form)
        with pytest.raises(OptimizationError):
            obj.value(np.zeros(3))


class TestPowering:
    def test_gradient_matches_finite_differences(self, rng):
        form = random_form(rng)
        obj = PoweringObjective(form)
        check_gradient(obj, rng.uniform(0, 2 * np.pi, obj.dim))

    def test_harvested_dbm_shape(self, rng):
        form = random_form(rng)
        obj = PoweringObjective(form)
        assert obj.harvested_dbm(np.zeros(obj.dim)).shape == (4,)


class TestLocalization:
    def make_objective(self, rng, k=3, m=2, e=5, i=7, beta=8.0):
        form = random_form(rng, k=k, m=m, e=e)
        predictions = 1e-4 * (
            rng.normal(size=(i, m, e)) + 1j * rng.normal(size=(i, m, e))
        )
        true_idx = rng.integers(0, i, size=k)
        return LocalizationObjective(
            form, predictions, true_idx, beta=beta
        )

    def test_gradient_matches_finite_differences(self, rng):
        obj = self.make_objective(rng)
        check_gradient(obj, rng.uniform(0, 2 * np.pi, obj.dim), rtol=5e-4)

    def test_gradient_matches_fd_high_beta(self, rng):
        obj = self.make_objective(rng, beta=40.0)
        check_gradient(obj, rng.uniform(0, 2 * np.pi, obj.dim), rtol=5e-4)

    def test_spectrum_bounded(self, rng):
        obj = self.make_objective(rng)
        spec = obj.spectrum(rng.uniform(0, 2 * np.pi, obj.dim))
        assert spec.shape == (3, 7)
        assert np.all(spec >= 0.0) and np.all(spec <= 1.0 + 1e-9)

    def test_perfect_prediction_peaks_at_truth(self, rng):
        """When predictions include the exact measured channel map,
        the spectrum peaks at the true index."""
        k, m, e = 1, 3, 6
        form = random_form(rng, k=k, m=m, e=e)
        # Build predictions where index 2 IS the measured map (offset-free).
        predictions = 1e-4 * (
            rng.normal(size=(5, m, e)) + 1j * rng.normal(size=(5, m, e))
        )
        predictions[2] = form.coeffs[0]
        offset_free = LinearChannelForm(
            "s", form.coeffs, np.zeros((k, m), dtype=complex)
        )
        obj = LocalizationObjective(offset_free, predictions, [2])
        phases = rng.uniform(0, 2 * np.pi, e)
        assert obj.estimated_angle_indices(phases)[0] == 2

    def test_validation(self, rng):
        form = random_form(rng)
        preds = np.zeros((5, 2, 6), dtype=complex)
        with pytest.raises(OptimizationError):
            LocalizationObjective(form, preds[:, :1, :], [0] * 4)
        with pytest.raises(OptimizationError):
            LocalizationObjective(form, preds, [0] * 3)
        with pytest.raises(OptimizationError):
            LocalizationObjective(form, preds, [9] * 4)
        with pytest.raises(OptimizationError):
            LocalizationObjective(form, preds, [0] * 4, beta=0.0)


class TestJoint:
    def test_weighted_sum_value_and_gradient(self, rng):
        form = random_form(rng)
        cov = CoverageObjective(form)
        pow_ = PoweringObjective(form)
        joint = JointObjective([(cov, 1.0), (pow_, 0.25)])
        phases = rng.uniform(0, 2 * np.pi, joint.dim)
        v, g = joint.value_and_gradient(phases)
        cv, cg = cov.value_and_gradient(phases)
        pv, pg = pow_.value_and_gradient(phases)
        assert v == pytest.approx(cv + 0.25 * pv)
        assert np.allclose(g, cg + 0.25 * pg)

    def test_joint_gradient_matches_fd(self, rng):
        form = random_form(rng)
        joint = JointObjective(
            [(CoverageObjective(form), 1.0), (PoweringObjective(form), 0.1)]
        )
        check_gradient(joint, rng.uniform(0, 2 * np.pi, joint.dim))

    def test_validation(self, rng):
        with pytest.raises(OptimizationError):
            JointObjective([])
        f1 = random_form(rng, e=4)
        f2 = random_form(rng, e=6)
        with pytest.raises(OptimizationError):
            JointObjective(
                [(CoverageObjective(f1), 1.0), (CoverageObjective(f2), 1.0)]
            )

    def test_fused_pass_leaves_no_reference_cycles(self, rng):
        """A dropped joint frees its restricted forms without the cyclic GC."""
        base = random_form(rng, k=6, m=4)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            local = base.restricted([0, 1, 2])
            alive = weakref.ref(local)
            legit = CoverageGoal(LinkBudget(), weights=np.array([1.0, 0.0, 0.0]))
            eve = CoverageGoal(LinkBudget(), weights=np.array([0.0, 1.0, 0.0]))
            security = JointObjective(
                [
                    (CoverageObjective(local, goal=legit), 1.0),
                    (CoverageObjective(local, goal=eve), -1.0),
                ]
            )
            joint = JointObjective(
                [
                    (CoverageObjective(local), 0.5),
                    (security, 0.3),
                    (PoweringObjective(local), 0.2),
                ]
            )
            joint.value_many(rng.uniform(-np.pi, np.pi, size=(4, joint.dim)))
            del joint, security, local
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()
