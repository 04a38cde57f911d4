import math

import numpy as np
import pytest

from ppmbench import gradchecks
from ppmbench import nnkernel as nn

from conftest import ref_batch_inputs


def zero_params(template):
    return {k: np.zeros_like(v) for k, v in template.items()}


def rng64(seed=0):
    return np.random.default_rng(seed)


def cell_params(cell, in_dim, hidden, seed=0, dtype=np.float64):
    return nn.init_cell(cell, rng64(seed), in_dim, hidden, dtype)


def block(cell, gate, hidden):
    """Columns of gate ``gate`` in a fused cell's U, W and b."""
    k = nn.CELL_GATES[cell].index(gate)
    return slice(k * hidden, (k + 1) * hidden)


def step(cell, params, x, h_prev, C_prev=None):
    """One fused step on a single input vector; returns (h, C, cache)."""
    a = np.atleast_2d(x) @ params["U"] + params["b"]
    C_prev = None if C_prev is None else np.atleast_2d(C_prev)
    h, C, cache = nn._step_forward(cell, params["W"], a, np.atleast_2d(h_prev), C_prev)
    return h[0], (None if C is None else C[0]), cache


def run(cell, params, xs, mask=None):
    """Hidden states of one (T, D) sequence."""
    hs, _ = nn.sequence_forward(cell, params, xs[None], None if mask is None else mask[None])
    return hs[0]


class TestActivations:
    def test_sigmoid_range_and_midpoint(self):
        # open interval holds up to the float64 saturation point (|x| ~ 36)
        x = np.linspace(-30, 30, 201)
        s = nn.sigmoid(x)
        assert np.all(s > 0.0) and np.all(s < 1.0)
        assert np.allclose(s, 1.0 / (1.0 + np.exp(-x)), rtol=1e-12, atol=1e-15)
        assert nn.sigmoid(np.array([0.0]))[0] == 0.5
        assert np.all(np.isfinite(nn.sigmoid(np.array([-500.0, 500.0]))))

    def test_softmax_sums_to_one(self):
        rng = rng64(1)
        for _ in range(50):
            logits = rng.normal(scale=10.0, size=(4, 7))
            probs = nn.softmax(logits)
            assert np.all(probs >= 0.0)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestRnnStep:
    def test_all_zero(self):
        params = zero_params(cell_params("rnn", 3, 4))
        h, _, _ = step("rnn", params, np.ones(3), np.ones(4))
        assert np.all(h == 0.0)

    def test_bias_saturation(self):
        params = zero_params(cell_params("rnn", 3, 4))
        params["b"] = np.full(4, 50.0)
        h, _, _ = step("rnn", params, np.zeros(3), np.zeros(4))
        assert np.allclose(h, 1.0)

    def test_scalar_case(self):
        params = {"U": np.array([[1.0]]), "W": np.array([[0.0]]), "b": np.array([0.0])}
        h, C, _ = step("rnn", params, np.array([0.5]), np.array([0.0]))
        assert h[0] == pytest.approx(math.tanh(0.5), abs=1e-12)
        assert C is None

    def test_shape_mismatch(self):
        params = cell_params("rnn", 3, 4)
        with pytest.raises(ValueError, match="input width 5"):
            nn.sequence_forward("rnn", params, np.ones((1, 2, 5)))


class TestLstmStep:
    def test_zero_params_halves_cell(self):
        params = zero_params(cell_params("lstm", 3, 4))
        h, C, _ = step("lstm", params, np.ones(3), np.zeros(4), np.full(4, 2.0))
        assert np.allclose(C, 1.0, atol=1e-15)  # f = i = 0.5, C~ = 0
        assert np.allclose(h, 0.5 * np.tanh(1.0), atol=1e-15)

    def test_zero_cell_zero_output(self):
        params = zero_params(cell_params("lstm", 2, 3))
        h, C, _ = step("lstm", params, np.zeros(2), np.zeros(3), np.zeros(3))
        assert np.all(C == 0.0) and np.all(h == 0.0)

    def test_forget_bias_preserves_memory(self):
        params = zero_params(cell_params("lstm", 1, 1))
        params["b"][block("lstm", "f", 1)] = 10.0
        _, C, _ = step("lstm", params, np.zeros(1), np.zeros(1), np.ones(1))
        f = 1.0 / (1.0 + math.exp(-10.0))
        assert C[0] == pytest.approx(f, abs=1e-15)
        assert C[0] == pytest.approx(1.0, abs=1e-4)

    def test_gates_in_open_interval(self):
        rng = rng64(5)
        params = nn.init_cell("lstm", rng, 3, 4, np.float64)
        a = rng.normal(size=(2, 3)) @ params["U"] + params["b"]
        _, _, cache = nn._step_forward(
            "lstm", params["W"], a, rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        )
        _, _, fio, c_tilde, _ = cache
        assert fio.shape == (2, 12)
        assert np.all(fio > 0.0) and np.all(fio < 1.0)
        assert np.all(c_tilde > -1.0) and np.all(c_tilde < 1.0)

    def test_forget_bias_initialized_to_one(self):
        params = nn.init_cell("lstm", rng64(), 3, 4)
        assert np.all(params["b"][block("lstm", "f", 4)] == 1.0)
        for gate in ("i", "o", "c"):
            assert np.all(params["b"][block("lstm", gate, 4)] == 0.0)


class TestGruStep:
    def test_zero_params_halves_hidden(self):
        params = zero_params(cell_params("gru", 3, 4))
        h, _, _ = step("gru", params, np.ones(3), np.full(4, 2.0))
        assert np.allclose(h, 1.0, atol=1e-15)

    def test_update_gate_saturation_copies_state(self):
        params = zero_params(cell_params("gru", 2, 3))
        params["b"][block("gru", "z", 3)] = 10.0
        h_prev = np.array([0.3, -0.7, 1.5])
        h, _, _ = step("gru", params, np.zeros(2), h_prev)
        assert np.allclose(h, h_prev, atol=1e-4)

    def test_scalar_candidate(self):
        params = zero_params(cell_params("gru", 1, 1))
        params["W"][:, block("gru", "h", 1)] = 1.0
        h, _, _ = step("gru", params, np.zeros(1), np.ones(1))
        assert h[0] == pytest.approx(0.5 + 0.5 * math.tanh(0.5), abs=1e-12)


class TestInit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cell", nn.CELLS)
    def test_equals_concatenated_per_gate_draws(self, cell, dtype):
        # checkpoint version 1 drew each gate's input block, then its
        # recurrent block, in gate order
        rng = rng64(3)
        blocks = [
            (nn.glorot_uniform(rng, 5, 4, dtype), nn.glorot_uniform(rng, 4, 4, dtype))
            for _ in nn.CELL_GATES[cell]
        ]
        params = nn.init_cell(cell, rng64(3), 5, 4, dtype)
        assert np.array_equal(params["U"], np.concatenate([u for u, _ in blocks], axis=1))
        assert np.array_equal(params["W"], np.concatenate([w for _, w in blocks], axis=1))
        assert all(v.dtype == dtype for v in params.values())

    def test_unknown_cell(self):
        with pytest.raises(ValueError):
            nn.init_cell("tcn", rng64(), 3, 4)


def per_gate_forward(cell, p, x, h_prev, C_prev):
    """The per-gate step formulas of checkpoint version 1, on split weights."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))  # noqa: E731
    if cell == "rnn":
        h = np.tanh(p["b"] + h_prev @ p["W"] + x @ p["U"])
        return h, C_prev, (h_prev, h)
    if cell == "lstm":
        f, i, o = (sig(p["b" + g] + x @ p["U" + g] + h_prev @ p["W" + g]) for g in "fio")
        c_tilde = np.tanh(p["bc"] + x @ p["Uc"] + h_prev @ p["Wc"])
        C = f * C_prev + i * c_tilde
        return o * np.tanh(C), C, (h_prev, C_prev, f, i, o, c_tilde, np.tanh(C))
    z, r = (sig(x @ p["U" + g] + h_prev @ p["W" + g] + p["b" + g]) for g in "zr")
    h_tilde = np.tanh(x @ p["Uh"] + (r * h_prev) @ p["Wh"] + p["bh"])
    return z * h_prev + (1.0 - z) * h_tilde, C_prev, (h_prev, z, r, h_tilde)


def per_gate_backward(cell, p, x, cache, dh, dC):
    """Returns (dx, dh_prev, dC_prev, per-gate grads) of one step."""
    if cell == "rnn":
        h_prev, h = cache
        das = {"": dh * (1.0 - h * h)}
        recurrent = {"": h_prev}
        dh_prev = 0.0
    elif cell == "lstm":
        h_prev, C_prev, f, i, o, c_tilde, tC = cache
        dC = dC + dh * o * (1.0 - tC * tC)
        das = {
            "f": dC * C_prev * f * (1.0 - f),
            "i": dC * c_tilde * i * (1.0 - i),
            "o": dh * tC * o * (1.0 - o),
            "c": dC * i * (1.0 - c_tilde * c_tilde),
        }
        recurrent = dict.fromkeys("fioc", h_prev)
        dh_prev, dC = 0.0, dC * f
    else:
        h_prev, z, r, h_tilde = cache
        da_h = dh * (1.0 - z) * (1.0 - h_tilde * h_tilde)
        drh = da_h @ p["Wh"].T
        das = {
            "z": dh * (h_prev - h_tilde) * z * (1.0 - z),
            "r": drh * h_prev * r * (1.0 - r),
            "h": da_h,
        }
        recurrent = {"z": h_prev, "r": h_prev, "h": r * h_prev}
        dh_prev = dh * z + drh * r
    grads, dx = {}, 0.0
    for g, da in das.items():
        grads["U" + g], grads["W" + g], grads["b" + g] = x.T @ da, recurrent[g].T @ da, da.sum(0)
        dx = dx + da @ p["U" + g].T
        if cell != "gru" or g != "h":
            dh_prev = dh_prev + da @ p["W" + g].T
    return dx, dh_prev, dC, grads


class TestFusedEquivalence:
    @pytest.mark.parametrize("cell", nn.CELLS)
    def test_matches_per_gate_formulas(self, cell):
        rng = rng64(17)
        H, D = 4, 3
        fused = {k: v + rng.normal(scale=0.3, size=v.shape) for k, v in cell_params(cell, D, H).items()}
        gates = nn.CELL_GATES[cell]
        suffix = dict(zip(gates, gates)) if cell != "rnn" else {"h": ""}
        split = {}
        for g in gates:
            cols = block(cell, g, H)
            s = suffix[g]
            split["U" + s], split["W" + s], split["b" + s] = (
                fused["U"][:, cols], fused["W"][:, cols], fused["b"][cols]
            )
        X = rng.normal(size=(4, 5, D))
        mask = np.array([[1, 1, 1, 1, 1], [0, 0, 1, 1, 1], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]], bool)
        dhs = rng.normal(size=(4, 5, H))

        h, C = np.zeros((4, H)), np.zeros((4, H))
        hs_ref, caches = np.zeros((4, 5, H)), []
        for t in range(5):
            m = mask[:, t, None]
            h_new, C_new, cache = per_gate_forward(cell, split, X[:, t], h, C)
            h, C = np.where(m, h_new, h), np.where(m, C_new, C)
            hs_ref[:, t] = h
            caches.append(cache)
        dxs_ref = np.zeros_like(X)
        grads_ref = {k: np.zeros_like(v) for k, v in split.items()}
        dh, dC = np.zeros((4, H)), np.zeros((4, H))
        for t in reversed(range(5)):
            m = mask[:, t, None]
            dh_total = dh + dhs[:, t]
            dx, dh_prev, dC_prev, grads = per_gate_backward(
                cell, split, X[:, t], caches[t], dh_total * m, dC * m
            )
            dxs_ref[:, t] = dx
            dh, dC = np.where(m, dh_prev, dh_total), np.where(m, dC_prev, dC)
            for k, g in grads.items():
                grads_ref[k] += g

        hs, fcaches = nn.sequence_forward(cell, fused, X, mask)
        dxs, fgrads = nn.sequence_backward(cell, fused, fcaches, dhs)
        assert np.abs(hs - hs_ref).max() <= 1e-12
        assert np.abs(dxs - dxs_ref).max() <= 1e-12
        for g in gates:
            cols, s = block(cell, g, H), suffix[g]
            assert np.abs(fgrads["U"][:, cols] - grads_ref["U" + s]).max() <= 1e-12
            assert np.abs(fgrads["W"][:, cols] - grads_ref["W" + s]).max() <= 1e-12
            assert np.abs(fgrads["b"][cols] - grads_ref["b" + s]).max() <= 1e-12


class TestForwardSequence:
    def test_zero_params_rnn_final_zero(self):
        params = zero_params(cell_params("rnn", 2, 3))
        hs = run("rnn", params, np.ones((4, 2)))
        assert np.all(hs == 0.0)

    def test_single_real_step_equals_step_op(self):
        rng = rng64(7)
        params = nn.init_cell("gru", rng, 3, 4, np.float64)
        x = rng.normal(size=3)
        hs = run("gru", params, x[None, :])
        direct, _, _ = step("gru", params, x, np.zeros(4))
        assert np.allclose(hs[-1], direct)

    def test_padding_passes_state_through(self):
        rng = rng64(9)
        params = nn.init_cell("gru", rng, 2, 3, np.float64)
        xs = rng.normal(size=(4, 2))
        mask = np.array([False, False, True, True])
        padded = np.where(mask[:, None], xs, 0.0)
        hs = run("gru", params, padded, mask=mask)
        assert np.all(hs[0] == 0.0) and np.all(hs[1] == 0.0)
        unpadded = run("gru", params, xs[2:])
        assert np.allclose(hs[2:], unpadded)

    def test_interleaved_padding_rejected(self):
        params = cell_params("gru", 2, 3)
        mask = np.array([True, False, True])
        with pytest.raises(ValueError):
            run("gru", params, np.zeros((3, 2)), mask=mask)

    def test_batch_shape(self):
        params = cell_params("lstm", 2, 5)
        hs, _ = nn.sequence_forward("lstm", params, np.zeros((3, 4, 2)))
        assert hs.shape == (3, 4, 5)

    def test_accepts_feature_matrix(self):
        from ppmbench.encoding import ColumnGroup, FeatureLayout, FeatureMatrix

        rng = rng64(11)
        params = nn.init_cell("gru", rng, 2, 3, np.float64)
        values = np.vstack([np.zeros((1, 2)), rng.normal(size=(2, 2))])
        mask = np.array([False, True, True])
        mat = FeatureMatrix(
            values=values,
            mask=mask,
            layout=FeatureLayout(groups=(ColumnGroup("x", "real", 0, 2),)),
        )
        hs, _ = nn.sequence_forward("gru", params, mat.values[None], mat.mask[None])
        assert np.all(hs[0, 0] == 0.0)
        assert np.allclose(hs[0, 1:], run("gru", params, values[1:]))


class TestLosses:
    def test_softmax_cross_entropy_gradient_numeric(self):
        rng = rng64(13)
        logits = rng.normal(size=(3, 4))
        targets = np.array([0, 2, 3])
        loss, dlogits = nn.softmax_cross_entropy(logits, targets)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                bumped = logits.copy()
                bumped[i, j] += eps
                up, _ = nn.softmax_cross_entropy(bumped, targets)
                bumped[i, j] -= 2 * eps
                down, _ = nn.softmax_cross_entropy(bumped, targets)
                assert dlogits[i, j] == pytest.approx((up - down) / (2 * eps), abs=1e-6)

    def test_mae_and_mse(self):
        pred = np.array([1.0, 3.0])
        target = np.array([0.0, 5.0])
        mae, dmae = nn.mae_loss(pred, target)
        assert mae == pytest.approx(1.5)
        assert dmae.tolist() == [0.5, -0.5]
        mse, dmse = nn.mse_loss(pred, target)
        assert mse == pytest.approx((1.0 + 4.0) / 2)

    def test_combine_losses(self):
        assert nn.combine_losses([0.3, 0.7]) == pytest.approx(1.0)
        assert nn.combine_losses([1.25]) == 1.25
        assert nn.combine_losses([1.0, 1.0, 1.0]) == 3.0
        with pytest.raises(ValueError):
            nn.combine_losses([1.0, float("nan")])
        with pytest.raises(ValueError):
            nn.combine_losses([float("inf")])


class TestBackwardProperties:
    def test_zero_loss_zero_gradients(self):
        # squared loss at an exact fit: pred == target everywhere
        x = np.array([[1.0, 2.0]])
        W = np.array([[0.5], [0.25]])
        b = np.array([0.0])
        out, cache = nn.affine_forward(x, W, b)
        loss, dout = nn.mse_loss(out, out.copy())
        assert loss == 0.0
        dx, grads = nn.affine_backward(cache, dout)
        assert np.all(grads["W"] == 0.0) and np.all(grads["b"] == 0.0) and np.all(dx == 0.0)

    def test_doubling_loss_doubles_gradients(self):
        rng = rng64(21)
        params = nn.init_cell("gru", rng, 2, 3, np.float64)
        xs = rng.normal(size=(2, 4, 2))
        hs, caches = nn.sequence_forward("gru", params, xs)
        dhs = rng.normal(size=hs.shape)
        _, grads = nn.sequence_backward("gru", params, caches, dhs)
        _, doubled = nn.sequence_backward("gru", params, caches, 2.0 * dhs)
        for k in grads:
            assert np.allclose(doubled[k], 2.0 * grads[k], atol=1e-12)

    def test_linear_regression_closed_form(self):
        # L = (w x - y)^2 has dL/dw = 2 (w x - y) x
        w, x, y = 0.7, 1.3, 2.0
        pred, cache = nn.affine_forward(np.array([[x]]), np.array([[w]]), np.array([0.0]))
        loss, dout = nn.mse_loss(pred, np.array([[y]]))
        _, grads = nn.affine_backward(cache, dout)
        assert grads["W"][0, 0] == pytest.approx(2.0 * (w * x - y) * x, abs=1e-12)


class TestGradcheck:
    def test_linear_layer_squared_loss(self):
        rng = rng64(3)
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 2))
        params = {"W": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}

        def loss_fn(p):
            out, cache = nn.affine_forward(X, p["W"], p["b"])
            loss, dout = nn.mse_loss(out, y)
            _, grads = nn.affine_backward(cache, dout)
            return loss, grads

        assert nn.gradcheck(loss_fn, params) < 1e-7

    def test_gru_sequence(self):
        rng = rng64(4)
        params = nn.init_cell("gru", rng, 3, 4, np.float64)
        params.update(
            {"Wout": nn.glorot_uniform(rng, 4, 3, np.float64), "bout": np.zeros(3)}
        )
        X = rng.normal(size=(2, 3, 3))
        mask = np.array([[True, True, True], [False, True, True]])
        y = np.array([0, 2])

        def loss_fn(p):
            cell = {k: v for k, v in p.items() if k not in ("Wout", "bout")}
            hs, caches = nn.sequence_forward("gru", cell, X, mask)
            logits, acache = nn.affine_forward(hs[:, -1, :], p["Wout"], p["bout"])
            loss, dlogits = nn.softmax_cross_entropy(logits, y)
            dlast, agrads = nn.affine_backward(acache, dlogits)
            dhs = np.zeros_like(hs)
            dhs[:, -1, :] = dlast
            _, grads = nn.sequence_backward("gru", cell, caches, dhs)
            grads["Wout"] = agrads["W"]
            grads["bout"] = agrads["b"]
            return loss, grads

        assert nn.gradcheck(loss_fn, params) < 1e-4

    def test_unused_parameter_contributes_zero(self):
        params = {"used": np.array([1.0]), "unused": np.array([2.0])}

        def loss_fn(p):
            loss = float(p["used"][0] ** 2)
            return loss, {"used": 2.0 * p["used"], "unused": np.zeros(1)}

        assert nn.gradcheck(loss_fn, params) < 1e-7

    def test_a_wrong_gradient_is_caught_at_every_size_the_difference_resolves(self):
        # loss 1 + s w^2 at w = 1 rounds to about 1.1e-16, so the central
        # difference resolves gradients down to about 1.1e-6, the floor
        for scale in (1.0, 1e-3, 1e-5):
            def loss_fn(p, scale=scale):
                return float(1.0 + scale * p["w"][0] ** 2), {"w": 2.0 * scale * p["w"] * 1.01}

            assert nn.gradcheck(loss_fn, {"w": np.ones(1)}) == pytest.approx(0.01 / 1.01, rel=1e-3)

    def test_a_gradient_below_the_floor_is_measured_against_it(self):
        # the gradient 1e-8 is exact, but the difference of two losses near 1
        # is off by float64 rounding, about 1e-3 of it
        def loss_fn(p):
            return float(1.0 + 1e-8 * p["w"][0]), {"w": np.full(1, 1e-8)}

        params = {"w": np.full(1, 0.3)}
        up, down = loss_fn({"w": params["w"] + 1e-5})[0], loss_fn({"w": params["w"] - 1e-5})[0]
        assert abs((up - down) / 2e-5 - 1e-8) / 1e-8 > 1e-4  # what the relative error alone would read
        assert nn.gradcheck(loss_fn, params) < 1e-4

    def test_the_gate_reaches_the_attribute_one_hots(self, monkeypatch):
        built = []
        build = gradchecks.build_predictor
        monkeypatch.setattr(gradchecks, "build_predictor", lambda *args: built.append(build(*args)) or built[-1])
        assert gradchecks.architecture_gradcheck("lstm", seed=2) < gradchecks.GRADCHECK_GATE
        encoder = built[0].encoder
        group = encoder.layout.group("attr:res")
        samples, _, _ = gradchecks._tiny_samples(2)
        X, M = ref_batch_inputs(built[0], samples)
        assert group.size == 3 and X[M][:, group.start + 1 : group.start + 3].any(axis=0).all()  # r1 and r2 both read

    def test_non_finite_loss_rejected(self):
        def loss_fn(p):
            return float("nan"), {"w": np.zeros(1)}

        with pytest.raises(ValueError):
            nn.gradcheck(loss_fn, {"w": np.zeros(1)})

    def test_parameter_budget(self):
        big = {"w": np.zeros(10_001)}
        with pytest.raises(ValueError):
            nn.gradcheck(lambda p: (0.0, {"w": np.zeros(10_001)}), big)


class TestOptimizer:
    def test_momentum_update(self):
        opt = nn.SGD(lr=0.1, momentum=0.5, clip_norm=None)
        params = {"w": np.array([1.0])}
        opt.step(params, {"w": np.array([2.0])})
        assert params["w"][0] == pytest.approx(0.8)  # v = -0.2
        opt.step(params, {"w": np.array([2.0])})
        assert params["w"][0] == pytest.approx(0.8 - 0.3)  # v = -0.3

    def test_clipping(self):
        opt = nn.SGD(lr=1.0, momentum=0.0, clip_norm=1.0)
        params = {"w": np.zeros(2)}
        opt.step(params, {"w": np.array([3.0, 4.0])})  # norm 5 -> scaled by 1/5
        assert np.allclose(params["w"], [-0.6, -0.8])

    @pytest.mark.parametrize("clip_norm", [None, 1.0, 10.0])
    def test_step_returns_the_norm_before_clipping(self, clip_norm):
        opt = nn.SGD(lr=1.0, momentum=0.0, clip_norm=clip_norm)
        grads = {"w": np.array([3.0, 0.0]), "b": np.array([4.0])}
        assert opt.step({"w": np.zeros(2), "b": np.zeros(1)}, grads) == 5.0

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            params = {k: v.astype(np.float32) for k, v in nn.init_cell("gru", rng, 3, 4).items()}
            opt = nn.SGD(lr=0.01, momentum=0.9)
            data = np.random.default_rng(1).normal(size=(8, 5, 3)).astype(np.float32)
            y = np.random.default_rng(2).integers(0, 3, size=8)
            head = {"W": nn.glorot_uniform(rng, 4, 3), "b": np.zeros(3, dtype=np.float32)}
            params.update({"head:W": head["W"], "head:b": head["b"]})
            for _ in range(5):
                cell = {k: v for k, v in params.items() if not k.startswith("head:")}
                hs, caches = nn.sequence_forward("gru", cell, data)
                logits, acache = nn.affine_forward(hs[:, -1, :], params["head:W"], params["head:b"])
                loss, dlogits = nn.softmax_cross_entropy(logits, y)
                dlast, agrads = nn.affine_backward(acache, dlogits)
                dhs = np.zeros_like(hs)
                dhs[:, -1, :] = dlast
                _, grads = nn.sequence_backward("gru", cell, caches, dhs)
                grads["head:W"] = agrads["W"]
                grads["head:b"] = agrads["b"]
                opt.step(params, grads)
            return params

        a = run()
        b = run()
        for k in a:
            assert np.array_equal(a[k], b[k])


class reference_sgd:
    """The dict optimiser that the flat-buffer ``nn.SGD`` replaced: a float64
    norm summed one parameter at a time, then a new velocity and a new
    parameter array for every gradient."""

    def __init__(self, lr=0.01, momentum=0.9, clip_norm=5.0):
        self.lr = lr
        self.momentum = momentum
        self.clip_norm = clip_norm
        self.velocity = {}

    def step(self, params, grads):
        total = 0.0
        for g in grads.values():
            total += float((g.astype(np.float64) ** 2).sum())
        norm = math.sqrt(total)
        scale = 1.0
        if self.clip_norm is not None and norm > self.clip_norm:
            scale = self.clip_norm / norm
        for name, grad in grads.items():
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(params[name])
            v = self.momentum * v - self.lr * scale * grad
            self.velocity[name] = v
            params[name] = params[name] + v
        return norm


SGD_SHAPES = {"U": (5, 12), "W": (4, 12), "b": (12,), "head:W": (4, 3), "head:b": (3,), "head:s": ()}


def random_arrays(rng, keys, dtype, scale=1.0):
    return {k: (scale * rng.normal(size=SGD_SHAPES[k])).astype(dtype) for k in keys}


def flat_velocity(ref, keys):
    return np.concatenate([np.ravel(ref.velocity[k]) for k in keys])


class TestFlatSGD:
    """``nn.SGD`` keeps the parameters its first gradients name in one flat
    buffer and one flat velocity. Against ``reference_sgd``: the updates are
    the same elementwise operations, so unclipped steps are bit-equal; the
    norm is one float64 dot, so it and a clipped step's scale may round
    differently in the last bits."""

    LR, MOMENTUM, CLIP = 0.05, 0.9, 5.0
    # clipped steps: the two scales differ by a few float64 ulps, which moves a
    # float32 scale by at most one ulp; over 200 steps the parameters stay
    # within 64 machine epsilons of the reference's largest entry
    CLIPPED_ULPS = 64

    def pair(self):
        return nn.SGD(self.LR, self.MOMENTUM, self.CLIP), reference_sgd(self.LR, self.MOMENTUM, self.CLIP)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unclipped_steps_are_bit_equal_to_the_reference(self, dtype):
        rng = rng64(3)
        params = random_arrays(rng, SGD_SHAPES, dtype)
        ref_params = dict(params)
        opt, ref = self.pair()
        for _ in range(200):
            grads = random_arrays(rng, SGD_SHAPES, dtype, scale=0.1)
            norm, ref_norm = opt.step(params, grads), ref.step(ref_params, grads)
            assert ref_norm < self.CLIP
            assert norm == pytest.approx(ref_norm, rel=1e-12, abs=0)
            for k in SGD_SHAPES:
                assert params[k].dtype == dtype and params[k].shape == SGD_SHAPES[k]
                assert np.array_equal(params[k], ref_params[k]), k
            assert np.array_equal(opt._velocity, flat_velocity(ref, SGD_SHAPES))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clipped_steps_stay_within_the_stated_tolerance(self, dtype):
        rng = rng64(4)
        params = random_arrays(rng, SGD_SHAPES, dtype)
        ref_params = dict(params)
        opt, ref = self.pair()
        for _ in range(200):
            grads = random_arrays(rng, SGD_SHAPES, dtype, scale=10.0)
            norm, ref_norm = opt.step(params, grads), ref.step(ref_params, grads)
            assert ref_norm > self.CLIP
            assert norm == pytest.approx(ref_norm, rel=1e-12, abs=0)
        largest = max(float(np.abs(v).max()) for v in ref_params.values())
        for k in SGD_SHAPES:
            atol = self.CLIPPED_ULPS * np.finfo(dtype).eps * largest
            assert np.allclose(params[k], ref_params[k], rtol=0, atol=atol), k

    def test_a_gradient_subset_leaves_the_other_parameters_alone(self):
        rng = rng64(5)
        params = random_arrays(rng, SGD_SHAPES, np.float32)
        frozen = {k: params[k] for k in ("U", "head:s")}
        frozen_copies = {k: v.copy() for k, v in frozen.items()}
        trained = ("W", "b", "head:W", "head:b")
        ref_params = dict(params)
        opt, ref = self.pair()
        for _ in range(20):
            grads = random_arrays(rng, trained, np.float32, scale=0.1)
            opt.step(params, grads)
            ref.step(ref_params, grads)
        for k, v in frozen.items():
            assert params[k] is v and np.array_equal(v, frozen_copies[k])
        for k in trained:
            assert np.array_equal(params[k], ref_params[k]), k
        assert opt._flat.size == sum(math.prod(SGD_SHAPES[k]) for k in trained)

    def test_the_callers_arrays_are_never_written(self):
        rng = rng64(6)
        params = random_arrays(rng, SGD_SHAPES, np.float32)
        originals = dict(params)
        copies = {k: v.copy() for k, v in params.items()}
        opt = nn.SGD(self.LR, self.MOMENTUM, self.CLIP)
        for _ in range(10):
            opt.step(params, random_arrays(rng, SGD_SHAPES, np.float32, scale=0.1))
        for k in SGD_SHAPES:
            assert params[k] is not originals[k]
            assert np.array_equal(originals[k], copies[k]), k
            assert not np.array_equal(params[k], copies[k]), k

    def test_stages_over_different_key_sets_train_independently(self):
        # the autoencoder's pattern: a pretraining stage over a layer dict that
        # shares the encoder's arrays, a head stage with the encoder frozen,
        # then a finetuning stage over every parameter, each with its own SGD
        rng = rng64(7)
        init = random_arrays(rng, ("U", "b", "head:W", "head:b"), np.float32)
        init.update(Wd=rng.normal(size=(12, 5)).astype(np.float32), bd=np.zeros(5, np.float32))
        init_copies = {k: v.copy() for k, v in init.items()}
        stage_shapes = [
            {"We": (5, 12), "be": (12,), "Wd": (12, 5), "bd": (5,)},
            {"head:W": (4, 3), "head:b": (3,)},
            {"U": (5, 12), "b": (12,), "head:W": (4, 3), "head:b": (3,)},
        ]
        grads = [
            [{k: (0.1 * rng.normal(size=s)).astype(np.float32) for k, s in shapes.items()} for _ in range(30)]
            for shapes in stage_shapes
        ]

        def run(make_sgd):
            stages = [make_sgd(self.LR, self.MOMENTUM, self.CLIP) for _ in stage_shapes]
            params = {k: init[k] for k in ("U", "b", "head:W", "head:b")}
            layer = {"We": params["U"], "be": params["b"], "Wd": init["Wd"], "bd": init["bd"]}
            for step_grads in grads[0]:
                stages[0].step(layer, step_grads)
            params["U"], params["b"] = layer["We"], layer["be"]
            layer_after = {k: v.copy() for k, v in layer.items()}
            for stage, stage_grads in zip(stages[1:], grads[1:]):
                for step_grads in stage_grads:
                    stage.step(params, step_grads)
            return stages, params, layer, layer_after

        stages, params, layer, layer_after = run(nn.SGD)
        _, ref_params, ref_layer, _ = run(reference_sgd)
        for k in ref_params:
            assert np.array_equal(params[k], ref_params[k]), k
        for k, v in layer.items():  # the later stages never wrote the first stage's buffer
            assert np.array_equal(v, layer_after[k]) and np.array_equal(v, ref_layer[k]), k
        assert [stage._flat.size for stage in stages] == [60 + 12 + 60 + 5, 12 + 3, 60 + 12 + 12 + 3]
        for k, v in init.items():
            assert np.array_equal(v, init_copies[k]), k

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_non_finite_gradient_raises_before_writing(self, bad, dtype):
        rng = rng64(8)
        params = random_arrays(rng, SGD_SHAPES, dtype)
        opt = nn.SGD(self.LR, self.MOMENTUM, self.CLIP)
        for _ in range(3):
            opt.step(params, random_arrays(rng, SGD_SHAPES, dtype, scale=0.1))
        before = {k: v.copy() for k, v in params.items()}
        velocity = opt._velocity.copy()
        grads = random_arrays(rng, SGD_SHAPES, dtype, scale=0.1)
        grads["W"][2, 7] = bad
        with pytest.raises(ValueError, match="non-finite gradient norm"):
            opt.step(params, grads)
        for k in SGD_SHAPES:
            assert np.array_equal(params[k], before[k]), k
        assert np.array_equal(opt._velocity, velocity)

    def test_a_non_finite_first_gradient_leaves_the_values(self):
        params = {"w": np.array([1.0, 2.0], np.float32)}
        with pytest.raises(ValueError, match="non-finite gradient norm"):
            nn.SGD().step(params, {"w": np.array([np.nan, 0.0], np.float32)})
        assert np.array_equal(params["w"], [1.0, 2.0])


class TestSGDRejectsMismatchedGradients:
    def bound(self):
        params = {"W": np.zeros((2, 3), np.float32), "b": np.zeros(3, np.float32)}
        opt = nn.SGD()
        opt.step(params, {"W": np.ones((2, 3), np.float32), "b": np.ones(3, np.float32)})
        return opt, params, {k: v.copy() for k, v in params.items()}

    @pytest.mark.parametrize("b_shape", [(4,), (2,), (1, 3), (3, 1)])
    def test_wrong_total_size_or_shape(self, b_shape):
        opt, params, before = self.bound()
        with pytest.raises(ValueError, match="gradient shapes"):
            opt.step(params, {"W": np.ones((2, 3), np.float32), "b": np.ones(b_shape, np.float32)})
        with pytest.raises(ValueError, match="gradient shapes"):  # same total size, transposed
            opt.step(params, {"W": np.ones((3, 2), np.float32), "b": np.ones(3, np.float32)})
        for k in before:
            assert np.array_equal(params[k], before[k])

    @pytest.mark.parametrize("grad_dtype", [np.float64, np.float16, np.int32])
    def test_wrong_dtype(self, grad_dtype):
        opt, params, before = self.bound()
        with pytest.raises(ValueError, match="gradient dtypes"):
            opt.step(params, {"W": np.ones((2, 3), np.float32), "b": np.ones(3, grad_dtype)})
        for k in before:
            assert params[k].dtype == np.float32 and np.array_equal(params[k], before[k])

    def test_parameters_of_mixed_dtypes(self):
        params = {"W": np.zeros((2, 3), np.float32), "b": np.zeros(3, np.float64)}
        grads = {"W": np.ones((2, 3), np.float32), "b": np.ones(3, np.float64)}
        with pytest.raises(ValueError, match="share one dtype"):
            nn.SGD().step(params, grads)
        assert params["b"].dtype == np.float64 and not params["b"].any()

    def test_a_key_missing_from_params(self):
        params = {"W": np.zeros((2, 3), np.float32)}
        with pytest.raises(ValueError, match="do not exist.*'b'"):
            nn.SGD().step(params, {"W": np.ones((2, 3), np.float32), "b": np.ones(3, np.float32)})
        assert set(params) == {"W"} and not params["W"].any()

    def test_another_key_set_after_the_first_step(self):
        opt, params, before = self.bound()
        with pytest.raises(ValueError, match="this optimiser updates"):
            opt.step(params, {"W": np.ones((2, 3), np.float32)})
        for k in before:
            assert np.array_equal(params[k], before[k])


class TestCheckpoint:
    def test_round_trip_bit_exact_float32(self, tmp_path):
        rng = rng64(8)
        params = {
            "W": rng.normal(size=(7, 3)).astype(np.float32),
            "b": rng.normal(size=3).astype(np.float32),
        }
        path = tmp_path / "ckpt.npz"
        nn.save_params(path, params, {"architecture": "test"})
        loaded, meta = nn.load_params(path)
        assert meta["architecture"] == "test"
        for k in params:
            assert loaded[k].dtype == np.float32
            assert np.array_equal(loaded[k], params[k])

    def test_npz_suffix_appended_and_a_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        params = {"W": np.arange(6, dtype=np.float32).reshape(2, 3)}
        nn.save_params(tmp_path / "ckpt", params)
        saved = (tmp_path / "ckpt.npz").read_bytes()

        def failing_savez(file, **arrays):
            file.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", failing_savez)
        with pytest.raises(OSError):
            nn.save_params(tmp_path / "ckpt.npz", {"W": np.zeros((2, 3), dtype=np.float32)})
        assert (tmp_path / "ckpt.npz").read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]

    def test_version_check(self, tmp_path):
        import json

        path = tmp_path / "bad.npz"
        for version in (1, 999):  # version 1 kept one array per gate, and no longer loads
            payload = {"__meta__": np.frombuffer(
                json.dumps({"checkpoint_version": version, "meta": {}}).encode(), dtype=np.uint8
            )}
            np.savez(path, **payload)
            with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}"):
                nn.load_params(path)


class TestShapeMismatches:
    def test_lstm_input_width(self):
        params = cell_params("lstm", 3, 4)
        with pytest.raises(ValueError, match="input width 5"):
            nn.sequence_forward("lstm", params, np.ones((1, 1, 5)))


# Frozen copies of the kernel's step and sequence passes, so that an edit to
# ``nnkernel`` cannot also edit the oracle it is checked against.

def frozen_sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def frozen_step_forward(cell, W, a, h_prev, C_prev):
    """``nnkernel._step_forward`` as frozen here: one step of a fused cell."""
    H = h_prev.shape[1]
    if cell == "rnn":
        h = np.tanh(a + h_prev @ W)
        return h, None, (h_prev, h)
    if cell == "lstm":
        pre = a + h_prev @ W
        s = frozen_sigmoid(pre[:, : 3 * H])
        c_tilde = np.tanh(pre[:, 3 * H :])
        C = s[:, :H] * C_prev + s[:, H : 2 * H] * c_tilde
        tC = np.tanh(C)
        h = s[:, 2 * H :] * tC
        return h, C, (h_prev, C_prev, s, c_tilde, tC)
    zr = frozen_sigmoid(a[:, : 2 * H] + h_prev @ W[:, : 2 * H])
    z = zr[:, :H]
    rh = zr[:, H:] * h_prev
    h_tilde = np.tanh(a[:, 2 * H :] + rh @ W[:, 2 * H :])
    h = z * h_prev + (1.0 - z) * h_tilde
    return h, None, (h_prev, zr, rh, h_tilde)


def frozen_step_backward(cell, W, cache, dh, dC):
    """``nnkernel._step_backward`` as frozen here: (da, dh_prev, dC_prev)."""
    H = dh.shape[1]
    if cell == "rnn":
        _, h = cache
        da = dh * (1.0 - h * h)
        return da, da @ W.T, None
    if cell == "lstm":
        _, C_prev, s, c_tilde, tC = cache
        dC = dC + dh * s[:, 2 * H :] * (1.0 - tC * tC)
        ds = np.concatenate([dC * C_prev, dC * c_tilde, dh * tC], axis=1) * s * (1.0 - s)
        da_c = dC * s[:, H : 2 * H] * (1.0 - c_tilde * c_tilde)
        da = np.concatenate([ds, da_c], axis=1)
        return da, da @ W.T, dC * s[:, :H]
    h_prev, zr, _, h_tilde = cache
    z = zr[:, :H]
    da_h = dh * (1.0 - z) * (1.0 - h_tilde * h_tilde)
    drh = da_h @ W[:, 2 * H :].T
    dzr = np.concatenate([dh * (h_prev - h_tilde), drh * h_prev], axis=1) * zr * (1.0 - zr)
    dh_prev = dh * z + drh * zr[:, H:] + dzr @ W[:, : 2 * H].T
    return np.concatenate([dzr, da_h], axis=1), dh_prev, None


def masked_backward_loop(cell, W, mask, steps, dhs, columns):
    """The backward time loop over ``columns``, masking every one of them;
    returns the stacked pre-activation gradients (B, len(columns), gH)."""
    B, _, H = dhs.shape
    dA = np.empty((B, len(steps), W.shape[1]), dtype=dhs.dtype)
    dh = np.zeros((B, H), dtype=dhs.dtype)
    dC = np.zeros((B, H), dtype=dhs.dtype) if cell == "lstm" else None
    for i, t in reversed(list(enumerate(columns))):
        m = mask[:, t]
        dh_total = dh + dhs[:, t]
        da, dh_prev, dC_prev = frozen_step_backward(cell, W, steps[i], dh_total * m, None if dC is None else dC * m)
        dA[:, i] = da
        dh = np.where(m, dh_prev, dh_total)
        if dC is not None:
            dC = np.where(m, dC_prev, dC)
    return dA


def weight_grads(cell, H, inputs, steps, dA):
    """Gradients of U, W and b from the stacked rows of the stepped columns."""
    dA = dA.reshape(-1, dA.shape[2])
    h_prev = np.stack([cache[0] for cache in steps], axis=1).reshape(-1, H)
    if cell == "gru":
        rh = np.stack([cache[2] for cache in steps], axis=1).reshape(-1, H)
        dW = np.concatenate([h_prev.T @ dA[:, : 2 * H], rh.T @ dA[:, 2 * H :]], axis=1)
    else:
        dW = h_prev.T @ dA
    return {"U": inputs.reshape(-1, inputs.shape[2]).T @ dA, "W": dW, "b": dA.sum(axis=0)}


def masked_forward(cell, params, inputs, mask, t0):
    """Columns ``t0..T-1`` stepped with the mask applied on each of them."""
    U, W, b = params["U"], params["W"], params["b"]
    B, T, D = inputs.shape
    H, S = W.shape[0], T - t0
    mask = np.ones((B, T), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    mask = mask[:, :, None]
    h = np.zeros((B, H), dtype=inputs.dtype)
    C = np.zeros((B, H), dtype=inputs.dtype) if cell == "lstm" else None
    A = (inputs[:, t0:].reshape(B * S, D) @ U + b).reshape(B, S, U.shape[1])
    hs = np.empty((B, T, H), dtype=inputs.dtype)
    hs[:, :t0] = 0.0
    steps = []
    for t in range(t0, T):
        h_new, C_new, cache = frozen_step_forward(cell, W, A[:, t - t0], h, C)
        h = np.where(mask[:, t], h_new, h)
        if C is not None:
            C = np.where(mask[:, t], C_new, C)
        hs[:, t] = h
        steps.append(cache)
    return hs, (inputs, mask, steps)


def masked_backward(cell, params, caches, dhs):
    """Backward of :func:`masked_forward` over the columns it stepped."""
    inputs, mask, steps = caches
    B, T, D = inputs.shape
    t0 = T - len(steps)
    dxs = np.zeros((B, T, D), dtype=dhs.dtype)
    if not steps:
        return dxs, {name: np.zeros_like(params[name], dtype=dhs.dtype) for name in ("U", "W", "b")}
    dA = masked_backward_loop(cell, params["W"], mask, steps, dhs, range(t0, T))
    grads = weight_grads(cell, params["W"].shape[0], inputs[:, t0:], steps, dA)
    dxs[:, t0:] = (dA.reshape(-1, dA.shape[2]) @ params["U"].T).reshape(B, T - t0, D)
    return dxs, grads


def reference_sequence_forward(cell, params, inputs, mask=None):
    """``sequence_forward`` as it was before passes started at the first real
    column: every one of the T columns is stepped and masked."""
    return masked_forward(cell, params, inputs, mask, 0)


def reference_sequence_backward(cell, params, caches, dhs):
    """``sequence_backward`` of :func:`reference_sequence_forward`."""
    return masked_backward(cell, params, caches, dhs)


def parent_sequence_forward(cell, params, inputs, mask=None):
    """``sequence_forward`` as it was before the mask was skipped on full
    columns: columns from the first real one on, each of them masked."""
    real = np.ones(inputs.shape[:2], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    return masked_forward(cell, params, inputs, mask, inputs.shape[1] - int(real.any(axis=0).sum()))


def parent_sequence_backward(cell, params, caches, dhs, input_grad=True):
    """``sequence_backward`` of :func:`parent_sequence_forward`; it always
    computes the input gradient, so ``input_grad`` is ignored."""
    return masked_backward(cell, params, caches, dhs)


def left_padded(lengths, T):
    """(B, T) mask whose row i has its last ``lengths[i]`` columns real."""
    return np.arange(T)[None, :] >= T - np.asarray(lengths)[:, None]


class TestFirstRealColumn:
    """The passes start at the first column where any row is real and mask
    only the columns that hold padding; hidden states, input gradients and
    parameter gradients stay bit-equal to the reference that steps and masks
    every column, and to the parent that masks every column it steps."""

    T = 7
    # name -> (real steps per row, or None for no mask; upstream gradient
    # only on the skipped columns)
    CASES = {
        "no-mask": (None, False),
        "every-row-starts-late": ([4, 2, 3], False),
        "one-all-padding-row": ([5, 0, 2], False),
        "all-padding": ([0, 0, 0], False),
        "upstream-only-on-skipped-columns": ([3, 1, 2], True),
        "every-row-one-length": ([4, 4, 4], False),  # every stepped column full
        "a-row-starts-in-the-last-column": ([6, 3, 1], False),  # a full column after padded ones
    }

    def inputs(self, case, cell, dtype):
        lengths, skipped_upstream = self.CASES[case]
        rng = rng64(sum(map(ord, case + cell)))
        B, D, H = 3, 5, 4
        params = {k: v.astype(dtype) for k, v in cell_params(cell, D, H, seed=3).items()}
        params["b"] = params["b"] + rng.normal(scale=0.5, size=params["b"].shape).astype(dtype)
        X = rng.normal(size=(B, self.T, D)).astype(dtype)
        mask = None if lengths is None else left_padded(lengths, self.T)
        dhs = rng.normal(size=(B, self.T, H)).astype(dtype)
        if skipped_upstream:
            dhs[:, self.T - max(lengths) :] = 0.0
        return params, X, mask, dhs

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cell", nn.CELLS)
    def test_bit_equal_to_every_column_reference(self, cell, dtype, case):
        params, X, mask, dhs = self.inputs(case, cell, dtype)
        hs, caches = nn.sequence_forward(cell, params, X, mask)
        dxs, grads = nn.sequence_backward(cell, params, caches, dhs)
        for forward, backward in [
            (reference_sequence_forward, reference_sequence_backward),
            (parent_sequence_forward, parent_sequence_backward),
        ]:
            ref_hs, ref_caches = forward(cell, params, X, mask)
            assert hs.dtype == ref_hs.dtype and np.array_equal(hs, ref_hs)
            ref_dxs, ref_grads = backward(cell, params, ref_caches, dhs)
            assert dxs.dtype == ref_dxs.dtype and np.array_equal(dxs, ref_dxs)
            assert grads.keys() == ref_grads.keys()
            for name, grad in grads.items():
                assert grad.dtype == ref_grads[name].dtype, name
                assert np.array_equal(grad, ref_grads[name]), name

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cell", nn.CELLS)
    def test_weight_gradients_without_the_input_gradient_are_bit_equal(self, cell, dtype, case):
        params, X, mask, dhs = self.inputs(case, cell, dtype)
        _, caches = nn.sequence_forward(cell, params, X, mask)
        _, grads = nn.sequence_backward(cell, params, caches, dhs)
        dxs, bare_grads = nn.sequence_backward(cell, params, caches, dhs, input_grad=False)
        assert dxs is None
        assert bare_grads.keys() == grads.keys()
        for name, grad in grads.items():
            assert bare_grads[name].dtype == grad.dtype, name
            assert np.array_equal(bare_grads[name], grad), name

    @pytest.mark.parametrize("case", list(CASES))
    def test_skipped_columns_hold_state_and_get_zero_gradient(self, case):
        params, X, mask, dhs = self.inputs(case, "lstm", np.float64)
        lengths = self.CASES[case][0]
        t0 = 0 if lengths is None else self.T - max(lengths)
        hs, caches = nn.sequence_forward("lstm", params, X, mask)
        assert len(caches[2]) == self.T - t0  # only the real columns are stepped
        assert np.all(hs[:, :t0] == 0.0)
        dxs, _ = nn.sequence_backward("lstm", params, caches, dhs)
        assert np.all(dxs[:, :t0] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cell", nn.CELLS)
    def test_inputs_of_skipped_columns_are_never_read(self, cell, dtype):
        case = "every-row-starts-late"
        params, X, mask, dhs = self.inputs(case, cell, dtype)
        t0 = self.T - max(self.CASES[case][0])
        X[:, :t0] = 0.0
        garbage = X.copy()
        garbage[:, :t0] = np.nan
        hs, caches = nn.sequence_forward(cell, params, X, mask)
        dxs, grads = nn.sequence_backward(cell, params, caches, dhs)
        garbage_hs, garbage_caches = nn.sequence_forward(cell, params, garbage, mask)
        garbage_dxs, garbage_grads = nn.sequence_backward(cell, params, garbage_caches, dhs)
        pairs = [("hs", garbage_hs, hs), ("dxs", garbage_dxs, dxs)]
        pairs += [(name, garbage_grads[name], grad) for name, grad in grads.items()]
        for name, got, want in pairs:
            assert np.all(np.isfinite(got)), name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("gru", {"attributes": ("Resource",), "embedding_dim": 4}),
            ("lstm", {"layers": 2, "time_target": "remaining"}),
            ("rnn", {}),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_predict_bit_equal_on_generator_logs(self, monkeypatch, seed, arch, overrides):
        from conftest import generator_log
        from ppmbench.models import TrainConfig, build_predictor, train
        from ppmbench.splitting import make_prefix_samples, temporal_split

        log, _ = generator_log(seed, 400)
        split = temporal_split(log)
        config = TrainConfig(**{"hidden": 8, "layers": 1, "epochs": 1, "patience": 1, **overrides})
        predictor = build_predictor(arch, config, log.activity_vocab, log.attribute_vocabs)
        train(predictor, split, seed=seed)
        prefixes = [sample.prefix for sample in make_prefix_samples(split.test)]
        trimmed = [predictor.predict(prefix) for prefix in prefixes]
        monkeypatch.setattr(nn, "sequence_forward", reference_sequence_forward)
        for prefix, (probs, delta) in zip(prefixes, trimmed):
            ref_probs, ref_delta = predictor.predict(prefix)
            assert np.array_equal(probs, ref_probs), len(prefix)
            assert delta == ref_delta, len(prefix)


class TestTrainingShapes:
    """The passes at training shapes: a batch of 32 rows and 15 columns
    whose rows, bucketed by length, are all shorter than 9 steps, so the
    passes start at t0 >= 7 and mask only their first columns. Everything is
    bit-equal to the frozen parent, which masks every column it steps.
    Against the every-column reference, hidden states and input gradients
    are bit-equal; its weight gradients sum over B·T rows where the passes
    sum over B·(T - t0), so BLAS may block the sum differently: each entry
    is held to ``RTOL`` of the reference, measured against the larger of its
    own size and the largest entry of its gradient (a sum that cancels may
    keep few exact bits)."""

    RTOL = {np.float32: 1e-5, np.float64: 1e-12}

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("hidden", [32, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cell", nn.CELLS)
    def test_matches_the_every_column_reference(self, cell, dtype, hidden, layers):
        B, T, D = 32, 15, 40
        rng = rng64(hidden + layers)
        mask = left_padded(np.sort(rng.integers(1, 9, size=B)), T)
        stack = [
            {k: v.astype(dtype) for k, v in nn.init_cell(cell, rng, D if i == 0 else hidden, hidden).items()}
            for i in range(layers)
        ]
        hs = parent_hs = ref_hs = rng.normal(size=(B, T, D)).astype(dtype)
        caches, parent_caches, ref_caches = [], [], []
        for params in stack:
            hs, cache = nn.sequence_forward(cell, params, hs, mask)
            parent_hs, parent_cache = parent_sequence_forward(cell, params, parent_hs, mask)
            ref_hs, ref_cache = reference_sequence_forward(cell, params, ref_hs, mask)
            assert np.array_equal(hs, parent_hs) and np.array_equal(hs, ref_hs)
            caches.append(cache)
            parent_caches.append(parent_cache)
            ref_caches.append(ref_cache)
        dxs = parent_dxs = ref_dxs = rng.normal(size=hs.shape).astype(dtype)
        rtol = self.RTOL[dtype]
        for params, cache, parent_cache, ref_cache in reversed(list(zip(stack, caches, parent_caches, ref_caches))):
            dxs, grads = nn.sequence_backward(cell, params, cache, dxs)
            parent_dxs, parent_grads = parent_sequence_backward(cell, params, parent_cache, parent_dxs)
            ref_dxs, ref_grads = reference_sequence_backward(cell, params, ref_cache, ref_dxs)
            assert dxs.dtype == parent_dxs.dtype and np.array_equal(dxs, parent_dxs)
            assert np.array_equal(dxs, ref_dxs)
            for name, grad in grads.items():
                assert grad.dtype == parent_grads[name].dtype, name
                assert np.array_equal(grad, parent_grads[name]), name
                ref = ref_grads[name]
                np.testing.assert_allclose(grad, ref, rtol=rtol, atol=rtol * np.abs(ref).max(), err_msg=name)


class TestRecurrentBatchLoss:
    """``RecurrentPredictor._batch_loss`` against the same model on the frozen
    parent passes, which always compute the first layer's input gradient:
    loss and every gradient are bit-equal, whether the first layer's input
    gradient is skipped (one-hot inputs) or read by an embedding."""

    @pytest.mark.parametrize("batch", ["bucketed", "mixed"])
    @pytest.mark.parametrize(
        "arch, overrides",
        [
            ("gru", {"attributes": ("Resource",)}),
            ("gru", {"embedding_dim": 4}),
            ("lstm", {"embedding_dim": 4, "time_target": "remaining"}),
        ],
    )
    def test_gradients_bit_equal_to_the_parent_passes(self, monkeypatch, arch, overrides, batch):
        from conftest import generator_log
        from ppmbench.models import TrainConfig, build_predictor
        from ppmbench.splitting import make_prefix_samples, temporal_split

        log, _ = generator_log(4, 200)
        samples = make_prefix_samples(temporal_split(log).train)
        config = TrainConfig(**{"hidden": 16, "layers": 2, **overrides})
        predictor = build_predictor(arch, config, log.activity_vocab, log.attribute_vocabs)
        start, y_act, y_time = predictor._fit_arrays(samples)[0]
        X, M = start.inputs()
        rows = np.argsort(M.sum(axis=1), kind="stable")[100:132] if batch == "bucketed" else np.arange(40)
        args = (X[rows], M[rows], y_act[rows], None if y_time is None else y_time[rows])
        params = predictor._build_params(np.random.default_rng(0))
        loss, grads = predictor._batch_loss(params, *args)
        monkeypatch.setattr(nn, "sequence_forward", parent_sequence_forward)
        monkeypatch.setattr(nn, "sequence_backward", parent_sequence_backward)
        parent_loss, parent_grads = predictor._batch_loss(params, *args)
        assert loss == parent_loss
        assert grads.keys() == parent_grads.keys() == params.keys()
        for name, grad in grads.items():
            assert grad.dtype == parent_grads[name].dtype == np.float32, name
            assert np.array_equal(grad, parent_grads[name]), name


class TestMaskShape:
    @pytest.mark.parametrize("shape", [(1, 5), (2, 4), (2, 6), (5,), (2, 5, 1)])
    def test_mask_of_another_shape_rejected(self, shape):
        params = cell_params("gru", 3, 4)
        with pytest.raises(ValueError, match=r"mask has shape .*expected \(2, 5\)"):
            nn.sequence_forward("gru", params, np.ones((2, 5, 3)), np.ones(shape, dtype=bool))

    def test_mask_as_nested_list_accepted(self):
        params = cell_params("rnn", 3, 4)
        mask = [[False, True, True], [True, True, True]]
        hs, _ = nn.sequence_forward("rnn", params, np.ones((2, 3, 3)), mask)
        assert np.all(hs[0, 0] == 0.0) and np.all(hs[1, 0] != 0.0)
