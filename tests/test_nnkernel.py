import math

import numpy as np
import pytest

from ppmbench import nnkernel as nn


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


def run(cell, params, xs, mask=None, h0=None):
    """Hidden states of one (T, D) sequence."""
    hs, _ = nn.sequence_forward(
        cell, params, xs[None], None if mask is None else mask[None], None if h0 is None else h0[None]
    )
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

    def test_zero_params_gru_repeated_halving(self):
        params = zero_params(cell_params("gru", 2, 3))
        h0 = np.array([1.0, -2.0, 4.0])
        hs = run("gru", params, np.zeros((3, 2)), h0=h0)
        assert np.allclose(hs[-1], h0 * 0.5**3, atol=1e-15)

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
        payload = {"__meta__": np.frombuffer(
            json.dumps({"checkpoint_version": 999, "meta": {}}).encode(), dtype=np.uint8
        )}
        np.savez(path, **payload)
        with pytest.raises(ValueError):
            nn.load_params(path)


class TestShapeMismatches:
    def test_lstm_input_width(self):
        params = cell_params("lstm", 3, 4)
        with pytest.raises(ValueError, match="input width 5"):
            nn.sequence_forward("lstm", params, np.ones((1, 1, 5)))

    def test_gru_hidden_width(self):
        params = cell_params("gru", 3, 4)
        with pytest.raises(ValueError, match="h0"):
            nn.sequence_forward("gru", params, np.ones((1, 1, 3)), h0=np.ones((1, 2)))


def reference_sequence_forward(cell, params, inputs, mask=None, h0=None, C0=None):
    """``sequence_forward`` as it was before passes started at the first real
    column: every one of the T columns is stepped."""
    U, W, b = params["U"], params["W"], params["b"]
    B, T, D = inputs.shape
    H = W.shape[0]
    mask = np.ones((B, T), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    mask = mask[:, :, None]
    h = np.zeros((B, H), dtype=inputs.dtype) if h0 is None else h0.astype(inputs.dtype)
    C = None
    if cell == "lstm":
        C = np.zeros((B, H), dtype=inputs.dtype) if C0 is None else C0.astype(inputs.dtype)
    A = (inputs.reshape(B * T, D) @ U + b).reshape(B, T, -1)
    hs = np.empty((B, T, H), dtype=inputs.dtype)
    steps = []
    for t in range(T):
        m = mask[:, t]
        h_new, C_new, cache = nn._step_forward(cell, W, A[:, t], h, C)
        h = np.where(m, h_new, h)
        if C is not None:
            C = np.where(m, C_new, C)
        hs[:, t] = h
        steps.append(cache)
    return hs, (inputs, mask, steps)


def reference_sequence_backward(cell, params, caches, dhs):
    """``sequence_backward`` of :func:`reference_sequence_forward`."""
    inputs, mask, steps = caches
    U, W = params["U"], params["W"]
    B, T, D = inputs.shape
    H = W.shape[0]
    dA = np.empty((B, T, W.shape[1]), dtype=dhs.dtype)
    dh = np.zeros((B, H), dtype=dhs.dtype)
    dC = np.zeros((B, H), dtype=dhs.dtype) if cell == "lstm" else None
    for t in reversed(range(T)):
        m = mask[:, t]
        dh_total = dh + dhs[:, t]
        da, dh_prev, dC_prev = nn._step_backward(
            cell, W, steps[t], dh_total * m, None if dC is None else dC * m
        )
        dA[:, t] = da
        dh = np.where(m, dh_prev, dh_total)
        if dC is not None:
            dC = np.where(m, dC_prev, dC)
    dA = dA.reshape(B * T, -1)
    h_prev = np.stack([cache[0] for cache in steps], axis=1).reshape(B * T, H)
    if cell == "gru":
        rh = np.stack([cache[2] for cache in steps], axis=1).reshape(B * T, H)
        dW = np.concatenate([h_prev.T @ dA[:, : 2 * H], rh.T @ dA[:, 2 * H :]], axis=1)
    else:
        dW = h_prev.T @ dA
    flat = inputs.reshape(B * T, D)
    grads = {"U": flat.T @ dA, "W": dW, "b": dA.sum(axis=0)}
    return (dA @ U.T).reshape(B, T, D), grads


def left_padded(lengths, T):
    """(B, T) mask whose row i has its last ``lengths[i]`` columns real."""
    return np.arange(T)[None, :] >= T - np.asarray(lengths)[:, None]


class TestFirstRealColumn:
    """The passes start at the first column where any row is real; hidden
    states, input gradients and parameter gradients stay bit-equal to the
    reference that steps through every column."""

    T = 7
    # name -> (real steps per row, or None for no mask; initial state given;
    # upstream gradient only on the skipped columns)
    CASES = {
        "no-mask": (None, False, False),
        "every-row-starts-late": ([4, 2, 3], False, False),
        "one-all-padding-row": ([5, 0, 2], False, False),
        "all-padding": ([0, 0, 0], False, False),
        "initial-state": ([3, 1, 2], True, False),
        "upstream-only-on-skipped-columns": ([3, 1, 2], True, True),
    }

    def inputs(self, case, cell, dtype):
        lengths, with_state, skipped_upstream = self.CASES[case]
        rng = rng64(sum(map(ord, case + cell)))
        B, D, H = 3, 5, 4
        params = {k: v.astype(dtype) for k, v in cell_params(cell, D, H, seed=3).items()}
        params["b"] = params["b"] + rng.normal(scale=0.5, size=params["b"].shape).astype(dtype)
        X = rng.normal(size=(B, self.T, D)).astype(dtype)
        mask = None if lengths is None else left_padded(lengths, self.T)
        h0 = rng.normal(size=(B, H)).astype(dtype) if with_state else None
        C0 = rng.normal(size=(B, H)).astype(dtype) if with_state and cell == "lstm" else None
        dhs = rng.normal(size=(B, self.T, H)).astype(dtype)
        if skipped_upstream:
            dhs[:, self.T - max(lengths) :] = 0.0
        return params, X, mask, h0, C0, dhs

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cell", nn.CELLS)
    def test_bit_equal_to_every_column_reference(self, cell, dtype, case):
        params, X, mask, h0, C0, dhs = self.inputs(case, cell, dtype)
        hs, caches = nn.sequence_forward(cell, params, X, mask, h0, C0)
        ref_hs, ref_caches = reference_sequence_forward(cell, params, X, mask, h0, C0)
        assert hs.dtype == ref_hs.dtype and np.array_equal(hs, ref_hs)
        dxs, grads = nn.sequence_backward(cell, params, caches, dhs)
        ref_dxs, ref_grads = reference_sequence_backward(cell, params, ref_caches, dhs)
        assert dxs.dtype == ref_dxs.dtype and np.array_equal(dxs, ref_dxs)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert grad.dtype == ref_grads[name].dtype, name
            assert np.array_equal(grad, ref_grads[name]), name

    @pytest.mark.parametrize("case", list(CASES))
    def test_skipped_columns_hold_state_and_get_zero_gradient(self, case):
        params, X, mask, h0, C0, dhs = self.inputs(case, "lstm", np.float64)
        lengths = self.CASES[case][0]
        t0 = 0 if lengths is None else self.T - max(lengths)
        hs, caches = nn.sequence_forward("lstm", params, X, mask, h0, C0)
        assert len(caches[2]) == self.T - t0  # only the real columns are stepped
        initial = np.zeros((3, 4)) if h0 is None else h0
        assert np.array_equal(hs[:, :t0], np.broadcast_to(initial[:, None], (3, t0, 4)))
        dxs, _ = nn.sequence_backward("lstm", params, caches, dhs)
        assert np.all(dxs[:, :t0] == 0.0)

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
