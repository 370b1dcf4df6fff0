"""Fast self-check suite: nulling, limiting cases, gradient spot checks,
and constraint satisfaction, all on fixed seeds. Intended to finish in
well under a minute; the CLI exits non-zero if any check fails.
"""

from __future__ import annotations

import os
import struct
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import baselines, channel, evaluation, kernels, metrics, models, reference
from .models import ModelConfig, forward_graph, init_params, power_split, unit_beams


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0       # wall time, set by run_checks


def _rand_channel(rng, k, m, n):
    return (rng.standard_normal((k, m, n)) + 1j * rng.standard_normal((k, m, n))) / np.sqrt(2)


def _fd_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a flat array."""
    g = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi.flat[i] += step
        lo.flat[i] -= step
        g.flat[i] = (f(hi) - f(lo)) / (2 * step)
    return g


def weighted_sum(y, weights) -> ad.Tensor:
    """sum(y * weights) as one op, the scalar of a gradient check: the tape's
    gradient at y's inputs is y's vector-Jacobian product with the weights."""
    y = ad.as_tensor(y)
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), y.data.shape)
    return ad.make_op((y.data * weights).sum(), (y,), lambda g: (g * weights,))


def _grad_check(build, inputs, rel_tol: float) -> tuple[bool, str]:
    """Compare tape gradients of build(*tensors)->scalar Tensor against central
    FD, over every entry of every input array."""
    leaves = [ad.Tensor(x.copy(), requires_grad=True) for x in inputs]
    with ad.Tape() as tape:
        out = build(*leaves)
    tape.backward(out)
    analytic = np.concatenate([t.grad.ravel() for t in leaves])

    def scalar(flat):
        parts = np.split(flat, np.cumsum([x.size for x in inputs])[:-1])
        return build(*(ad.Tensor(part.reshape(x.shape))
                       for part, x in zip(parts, inputs))).item()

    numeric = _fd_grad(scalar, np.concatenate([x.ravel() for x in inputs]))
    denom = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-12)
    rel = float(np.max(np.abs(analytic - numeric)) / denom)
    return rel <= rel_tol, f"max rel err {rel:.2e}"


def check_zf_nulling() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        h = _rand_channel(rng, 8, 4, 4)
        for k in range(8):
            w, _ = reference.zf_beamformer(h[k])
            cross = h[k].T @ w
            np.fill_diagonal(cross, 0.0)
            worst = max(worst, float(np.max(np.abs(cross))))
    return CheckResult("zf_nulling", worst <= 1e-9, f"max cross gain {worst:.2e}")


def channels_with_gram_cond(rng, cond, m: int, n: int) -> np.ndarray:
    """(len(cond), m, n) channel slices, 2 <= n <= m, whose zero-forcing Gram
    has eigenvalues (1, ..., 1, 1 / cond): condition number cond per slice."""
    u, _, vh = np.linalg.svd(_rand_channel(rng, len(cond), m, n), full_matrices=False)
    s = np.concatenate([np.ones((len(cond), n - 1)), np.asarray(cond)[:, None] ** -0.5], axis=1)
    return (u * s[:, None, :]) @ vh


def zf_raises(h_k) -> bool:
    """Whether the reference zf_beamformer calls the slice singular."""
    try:
        reference.zf_beamformer(h_k)
    except reference.SingularChannelError:
        return True
    return False


def check_batched_classical() -> CheckResult:
    """Stack ZF/MMSE against the single-slice references, and zf_directions'
    mask against where zf_beamformer raises, on Grams around 1 / RCOND_MIN."""
    rng = np.random.default_rng(25)
    h = _rand_channel(rng, 24, 4, 3).reshape(3, 8, 4, 3)
    reg = rng.uniform(0.1, 2.0, (3, 8))
    w_zf, _ = reference.zf_directions(h)
    w_mm = reference.mmse_directions(h, reg)
    worst = 0.0
    for idx in np.ndindex(3, 8):
        ref_mm, _ = reference.mmse_beamformer(h[idx], reg[idx])
        ref_zf, _ = reference.zf_beamformer(h[idx])
        worst = max(worst, float(np.max(np.abs(w_zf[idx] - ref_zf))),
                    float(np.max(np.abs(w_mm[idx] - ref_mm))))
    band = channels_with_gram_cond(rng, np.geomspace(1e11, 1e13, 16), 4, 3)
    _, singular = reference.zf_directions(band)
    differ = sum(bool(s) != zf_raises(b) for s, b in zip(singular, band))
    return CheckResult("batched_classical", worst <= 1e-10 and differ == 0,
                       f"max deviation {worst:.2e}, singular mask differs from zf_beamformer "
                       f"on {differ}/{len(band)} near-singular slices")


def check_closed_form_classical() -> CheckResult:
    """baselines.regularized_terms against metrics.terms of the ZF and MMSE
    directions, on a stack that holds a Gram of condition number 1e9; and
    the regulariser 1e-12 against ZF's 0."""
    rng = np.random.default_rng(33)
    h = _rand_channel(rng, 24, 4, 3).reshape(3, 8, 4, 3)
    h[1, 5] = channels_with_gram_cond(rng, [1e9], 4, 3)[0]
    sigma2 = rng.uniform(0.05, 2.0, (3, 3))
    reg = sigma2.mean(axis=1)
    eig = baselines.gram_eigh(h)
    zf = metrics.rates_from(*baselines.zf_terms(eig), sigma2)
    pairs = [(zf, reference.zf_directions(h)[0]),
             (metrics.rates_from(*baselines.regularized_terms(eig, reg[:, None, None]), sigma2),
              reference.mmse_directions(h, reg[:, None]))]
    worst = max(float(np.max(np.abs(rates / metrics.per_sample_sum_rates(w, h, np.ones((3, 3)),
                                                                        sigma2) - 1.0)))
                for rates, w in pairs)
    limit = metrics.rates_from(*baselines.regularized_terms(eig, 1e-12), sigma2)
    gap = float(np.max(np.abs(limit / zf - 1.0)))
    return CheckResult("closed_form_classical", worst <= 1e-9 and gap <= 1e-9,
                       f"max rate deviation from the directions {worst:.2e}, "
                       f"reg 1e-12 from ZF {gap:.2e}")


def check_eval_classical_rows() -> CheckResult:
    """evaluate's ZF and MMSE rows against the mean rates of the beams of
    reference.zf_directions and reference.mmse_directions, MMSE regularised
    at each sample's mean sigma^2."""
    rng = np.random.default_rng(38)
    h = _rand_channel(rng, 48, 4, 3).reshape(6, 8, 4, 3)
    offsets = rng.uniform(-6.0, 6.0, (6, 3))
    ds = channel.ChannelDataset(h=h, ue_snr_offset_db=offsets, profile="TDL-A",
                                delay_spread_ns=30.0, jitter_db=6.0, seed=0)
    w_zf, _ = reference.zf_directions(h)
    worst = 0.0
    for row in evaluation.evaluate(ds, (-5.0, 10.0, 25.0), evaluation.CLASSICAL_METHODS):
        sigma2 = channel.snr_db_to_noise_var(row.snr_db + offsets)
        w = w_zf if row.method == "ZF" else reference.mmse_directions(h, sigma2.mean(axis=1)[:, None])
        want = metrics.per_sample_sum_rates(w, h, np.ones((6, 3)), sigma2).mean()
        worst = max(worst, abs(row.se_mean / want - 1.0))
    return CheckResult("eval_classical_rows", worst <= 1e-9,
                       f"max se_mean deviation from the oracle beams {worst:.2e}")


def check_mmse_zf_limit() -> CheckResult:
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        h = _rand_channel(rng, 1, 4, 4)[0]
        w_zf, _ = reference.zf_beamformer(h)
        w_mm, _ = reference.mmse_beamformer(h, 1e-12)
        for i in range(4):
            phase = np.vdot(w_zf[:, i], w_mm[:, i])
            phase /= max(abs(phase), 1e-300)
            worst = max(worst, float(np.linalg.norm(w_mm[:, i] - phase * w_zf[:, i])))
    return CheckResult("mmse_zf_limit", worst <= 1e-5, f"max aligned distance {worst:.2e}")


def check_structure_collinearity() -> CheckResult:
    rng = np.random.default_rng(13)
    worst = 1.0
    for lam in (0.0, 1.0, 10.0, 100.0):
        h = _rand_channel(rng, 1, 4, 1)[0]
        w, _ = reference.optimal_structure_bf(
            h, reference.VirtualUplinkPowers(np.array([lam])), np.ones(1), 1.0)
        mf = reference.matched_filter(h)
        cos = abs(np.vdot(mf[:, 0], w[:, 0]))
        worst = min(worst, float(cos))
    return CheckResult("structure_collinearity", abs(worst - 1.0) <= 1e-12,
                       f"min |cos| {worst:.15f}")


def check_structure_oracle() -> CheckResult:
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(10):
        h = _rand_channel(rng, 1, 4, 4)[0]
        lam = rng.uniform(0.2, 2.0, 4)
        w, _ = reference.optimal_structure_bf(h, reference.VirtualUplinkPowers(lam),
                                              np.ones(4), 1.0)
        a = h.conj()
        cov = np.eye(4) + (a * lam[None, :]) @ a.conj().T
        expect = np.linalg.inv(cov) @ a
        expect /= np.linalg.norm(expect, axis=0, keepdims=True)
        worst = max(worst, float(np.max(np.abs(w - expect))))
    return CheckResult("structure_oracle", worst <= 1e-10, f"max deviation {worst:.2e}")


def check_fixed_point() -> CheckResult:
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(5):
        h = _rand_channel(rng, 1, 2, 2)[0]
        lam = reference.solve_virtual_uplink_powers(h, np.ones(2), 0.5)
        sinrs = reference.virtual_uplink_sinrs(h, lam.lam, 0.5)
        worst = max(worst, float(np.max(np.abs(sinrs - 1.0))))
    return CheckResult("fixed_point_selfconsistency", worst <= 1e-8,
                       f"max target deviation {worst:.2e}")


def check_metrics_oracle() -> CheckResult:
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(20):
        k, m, n = 3, 3, 2
        h = _rand_channel(rng, k, m, n)
        w = _rand_channel(rng, k, m, n)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        p = rng.uniform(0.2, 0.8, n)
        sigma2 = rng.uniform(0.5, 2.0, n)
        bf = reference.BeamformerSet(w_tilde=w, p=p, p_max=float(n))
        gamma = reference.sinr_per_ue(h, bf, sigma2)
        for kk in range(k):
            for nn in range(n):
                sig = p[nn] * abs(np.dot(h[kk, :, nn], w[kk, :, nn])) ** 2
                intf = sum(p[ii] * abs(np.dot(h[kk, :, nn], w[kk, :, ii])) ** 2
                           for ii in range(n) if ii != nn)
                worst = max(worst, abs(gamma[kk, nn] - sig / (intf + sigma2[nn])))
    return CheckResult("metrics_oracle", worst <= 1e-12, f"max deviation {worst:.2e}")


def check_grad_gelu() -> CheckResult:
    rng = np.random.default_rng(17)
    ok, detail = _grad_check(lambda t: weighted_sum(ad.gelu(t), 1.0),
                             [rng.standard_normal(16)], 1e-5)
    return CheckResult("grad_gelu", ok, detail)


def check_grad_linear() -> CheckResult:
    rng = np.random.default_rng(18)
    w = rng.standard_normal((3, 5))
    b = rng.standard_normal(3)
    x, mixer = rng.standard_normal((4, 5)), rng.standard_normal((4, 3))
    ok, detail = _grad_check(
        lambda t: weighted_sum(ad.linear(t, ad.Tensor(w), ad.Tensor(b)), mixer), [x], 1e-5)
    return CheckResult("grad_linear", ok, detail)


def check_grad_softmax() -> CheckResult:
    """The closed-form pull of models.power_split against FD."""
    rng = np.random.default_rng(19)
    mixer = rng.standard_normal((4, 6))
    ok, detail = _grad_check(lambda t: weighted_sum(power_split(t, 6), mixer),
                             [rng.standard_normal((4, 6))], 1e-5)
    return CheckResult("grad_softmax", ok, detail)


def check_grad_conv() -> CheckResult:
    rng = np.random.default_rng(20)
    w = rng.standard_normal((3, 2, 3))
    x, mixer = rng.standard_normal((2, 2, 8)), rng.standard_normal((2, 3, 4))
    ok, detail = _grad_check(
        lambda t: weighted_sum(reference.conv1d(t, ad.Tensor(w), stride=2, padding=1), mixer),
        [x], 1e-5)
    return CheckResult("grad_conv1d", ok, detail)


def check_grad_batchnorm() -> CheckResult:
    rng = np.random.default_rng(21)
    gamma = rng.uniform(0.5, 1.5, 3)
    beta = rng.standard_normal(3)
    mixer = rng.standard_normal((2, 3, 4))

    def build(t):
        state = ad.BatchNormState(np.zeros(3), np.ones(3))
        y = reference.batchnorm1d(t, ad.Tensor(gamma), ad.Tensor(beta), state, training=True)
        return weighted_sum(y, mixer)

    ok, detail = _grad_check(build, [rng.standard_normal((2, 3, 4))], 1e-5)
    return CheckResult("grad_batchnorm", ok, detail)


def check_grad_conv_bn_gelu() -> CheckResult:
    """All four VJPs of the fused conv -> batch norm -> GELU op, stride 2."""
    rng = np.random.default_rng(27)
    mixer = rng.standard_normal((2, 4, 3))

    def build(x, w, gamma, beta):
        y = ad.conv_bn_gelu(x, w, gamma, beta, ad.BatchNormState(np.zeros(3), np.ones(3)),
                            training=True, stride=2, padding=1)
        return weighted_sum(y, mixer)

    xw = rng.standard_normal(50)
    inputs = [xw[:32].reshape(2, 8, 2), xw[32:].reshape(3, 2, 3), rng.uniform(0.5, 1.5, 3),
              rng.standard_normal(3)]
    ok, detail = _grad_check(build, inputs, 1e-5)
    return CheckResult("grad_conv_bn_gelu", ok, detail)


def check_grad_sum_rates() -> CheckResult:
    """The closed-form pull of the loss op metrics.neg_sum_rate_graph against
    FD, beams and powers."""
    rng = np.random.default_rng(28)
    b, k, m, n = 2, 3, 3, 2
    h = _rand_channel(rng, b * k, m, n).reshape(b, k, m, n)
    sigma2 = rng.uniform(0.3, 2.0, (b, n))
    wr, wi = rng.standard_normal((2, b, k, m, n))
    p = rng.uniform(0.2, 1.5, (b, n))
    ok, detail = _grad_check(lambda w, p: metrics.neg_sum_rate_graph(w, h, p, sigma2),
                             [np.stack([wr, wi], axis=-1), p], 1e-5)
    return CheckResult("grad_sum_rates", ok, detail)


def check_grad_unit_beams() -> CheckResult:
    """The closed-form pull of models.unit_beams against FD."""
    rng = np.random.default_rng(29)
    b, k, m, n = 2, 2, 3, 2
    mixer = rng.standard_normal((b, k, m, n, 2))
    ok, detail = _grad_check(lambda t: weighted_sum(unit_beams(t, (b, k, m, n)), mixer),
                             [rng.standard_normal((b, 2 * k * m * n))], 1e-5)
    return CheckResult("grad_unit_beams", ok, detail)


def check_grad_full_loss() -> CheckResult:
    rng = np.random.default_rng(22)
    cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=4)
    params = init_params(cfg, rng)
    h = _rand_channel(rng, 4, 2, 2)[None]
    sigma2 = rng.uniform(0.5, 1.5, (1, 2))

    name = "bf1.w"
    target = params.tensors[name]
    x0 = target.data.copy()

    def loss_with(data) -> float:
        target.data[...] = data.reshape(target.data.shape)
        state = params.flat.copy()
        w, p = forward_graph(h, params, cfg, training=True)
        params.flat[...] = state           # undo the forward's batch-norm updates
        return -metrics.per_sample_sum_rates(metrics.as_complex(w.data), h, p.data,
                                             sigma2).mean()

    with ad.Tape() as tape:
        w, p = forward_graph(h, params, cfg, training=True)
        loss = metrics.neg_sum_rate_graph(w, h, p, sigma2)
    tape.backward(loss)
    analytic = target.grad.copy()
    flat_idx = np.argsort(np.abs(analytic.ravel()))[-24:]   # spot-check largest entries
    numeric = np.empty(flat_idx.size)
    for j, i in enumerate(flat_idx):
        hi = x0.copy()
        lo = x0.copy()
        hi.flat[i] += 1e-6
        lo.flat[i] -= 1e-6
        numeric[j] = (loss_with(hi) - loss_with(lo)) / 2e-6
    target.data[...] = x0
    denom = max(np.max(np.abs(numeric)), 1e-12)
    rel = float(np.max(np.abs(analytic.ravel()[flat_idx] - numeric)) / denom)
    return CheckResult("grad_full_loss", rel <= 1e-4, f"max rel err {rel:.2e}")


def check_constraints() -> CheckResult:
    rng = np.random.default_rng(23)
    cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8)
    worst_norm, worst_pow = 0.0, 0.0
    for _ in range(20):
        params = init_params(cfg, rng)
        h = _rand_channel(rng, 8, 2, 2)[None]
        w, p = forward_graph(h, params, cfg, training=False)
        norms = np.linalg.norm(metrics.as_complex(w.data), axis=2)
        worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
        worst_pow = max(worst_pow, float(np.max(np.abs(p.data.sum(axis=1) - cfg.n_ue))))
    ok = worst_norm <= 1e-9 and worst_pow <= 1e-12
    return CheckResult("constraints_by_construction", ok,
                       f"norm dev {worst_norm:.2e}, power dev {worst_pow:.2e}")


def check_softmax_rows() -> CheckResult:
    """models.power_split rows sum to N and do not change under a shift."""
    rng = np.random.default_rng(24)
    x = rng.standard_normal((64, 7)) * 10
    y = power_split(x, 7).data
    shift = power_split(x + 123.0, 7).data
    dev = max(float(np.max(np.abs(y.sum(axis=1) - 7.0))), float(np.max(np.abs(y - shift))))
    return CheckResult("softmax_rows", dev <= 1e-12, f"max deviation {dev:.2e}")


def check_rate_bound() -> CheckResult:
    """ZF, MMSE and random designs stay under metrics.sum_rate_bound; a
    single-UE matched filter at full power attains it."""
    rng = np.random.default_rng(26)
    h = _rand_channel(rng, 48, 4, 3).reshape(6, 8, 4, 3)
    sigma2 = rng.uniform(0.05, 2.0, (6, 3))
    bound = metrics.sum_rate_bound((np.abs(h) ** 2).sum(axis=2), sigma2)
    w_rand = _rand_channel(rng, 48, 4, 3).reshape(6, 8, 4, 3)
    w_rand /= np.linalg.norm(w_rand, axis=2, keepdims=True)
    eig = baselines.gram_eigh(h)
    rates = [metrics.rates_from(*baselines.zf_terms(eig), sigma2),
             metrics.rates_from(*baselines.regularized_terms(eig, sigma2.mean(axis=1)[:, None, None]),
                                sigma2),
             metrics.per_sample_sum_rates(w_rand, h, 3.0 * rng.dirichlet(np.ones(3), 6), sigma2)]
    worst = max(float(np.max(r / bound)) for r in rates)
    h1, s1 = h[..., :1], sigma2[:, :1]
    w_mf = h1.conj() / np.linalg.norm(h1, axis=2, keepdims=True)
    attained = metrics.per_sample_sum_rates(w_mf, h1, np.ones((6, 1)), s1)
    bound1 = metrics.sum_rate_bound((np.abs(h1) ** 2).sum(axis=2), s1)
    gap = float(np.max(np.abs(attained / bound1 - 1.0)))
    return CheckResult("rate_bound", worst <= 1.0 + 1e-12 and gap <= 1e-12,
                       f"max rate/bound {worst:.6f}, single-UE gap {gap:.2e}")


def check_adam_bowl() -> CheckResult:
    """Adam descends theta^2, its gradient 2 theta set directly."""
    theta = ad.Tensor(np.array([1.0]), requires_grad=True)
    opt = ad.Adam([theta], lr=0.05)
    for _ in range(500):
        theta.grad = 2.0 * theta.data
        opt.step()
    val = abs(float(theta.data[0]))
    return CheckResult("adam_quadratic_bowl", val < 1e-2, f"|theta| {val:.2e}, {opt.kernel} kernel")


def check_adam_kernels() -> CheckResult:
    """The compiled Adam kernel writes the numpy kernel's bytes over 3 steps."""
    states = []
    for kernel in ("c", "numpy"):
        rng = np.random.default_rng(17)
        tensors = [ad.Tensor(rng.standard_normal(shape), requires_grad=True)
                   for shape in ((5, 3), (7,), (2, 4, 3))]
        opt = ad.Adam(tensors, lr=0.01)
        if kernel == "numpy":
            opt._kernel = None
        elif opt.kernel != "c":
            return CheckResult("adam_kernels", True, "numpy kernel only: no C kernel was built")
        for _ in range(3):
            for t in tensors:
                t.grad = rng.standard_normal(t.data.shape) * 10.0 ** rng.integers(-8, 3)
            opt.step()
        states.append([a.tobytes() for a in (*(t.data for t in tensors), opt._m, opt._v)])
    return CheckResult("adam_kernels", states[0] == states[1],
                       f"c vs numpy, 3 steps: each tensor and the moments "
                       f"{'equal' if states[0] == states[1] else 'differ'} byte for byte")


def check_factored_weight_gradients() -> CheckResult:
    """On this BLAS, the row blocks Adam forms of a FactoredGrad equal those
    rows of g.T @ x, and 3 steps through factored gradients write the bytes
    of 3 steps through the formed products, on each Adam kernel."""
    rng = np.random.default_rng(29)
    rows_equal = True
    for batch, f_out, f_in in ((32, 65, 16384), (7, 200, 3000)):   # rows 32 + 33, 168 + 32
        grad = ad.FactoredGrad(rng.standard_normal((batch, f_out)), rng.standard_normal((batch, f_in)))
        whole = grad.dense()
        rows_equal &= all(block.tobytes() == whole[lo:lo + len(block)].tobytes()
                          for lo, block in grad.row_blocks(np.empty(grad.block_size)))
    kernels_run = ["numpy"] if kernels.build().adam is None else ["c", "numpy"]
    states = []
    for kernel in kernels_run:
        for factored in (True, False):
            rng = np.random.default_rng(37)
            t = ad.Tensor(rng.standard_normal((200, 3000)), requires_grad=True)
            opt = ad.Adam([t], lr=0.01)
            if kernel == "numpy":
                opt._kernel = None
            for _ in range(3):
                grad = ad.FactoredGrad(rng.standard_normal((7, 200)), rng.standard_normal((7, 3000)))
                t.grad = grad if factored else grad.dense()
                opt.step()
            states.append([a.tobytes() for a in (t.data, opt._m, opt._v)])
    steps_equal = all(state == states[0] for state in states)
    return CheckResult("factored_weight_gradients", rows_equal and steps_equal,
                       f"row blocks {'equal' if rows_equal else 'differ from'} g.T @ x; "
                       f"{'/'.join(kernels_run)} Adam, 3 steps: factored and formed gradients "
                       f"write {'the same' if steps_equal else 'different'} bytes")


def check_normal_kernels() -> CheckResult:
    """The compiled normal fill writes numpy's draws and leaves numpy's generator state."""
    n, scale = 1 << 16, 0.37
    rngs = [np.random.default_rng(23) for _ in range(2)]
    outs = [np.empty(n) for _ in range(2)]
    if kernels.standard_normal(rngs[0], outs[0], scale) != "c":
        return CheckResult("normal_kernels", True, "numpy only: no C kernel was built")
    rngs[1].standard_normal(out=outs[1])
    outs[1] *= scale
    same = (outs[0].tobytes() == outs[1].tobytes()
            and rngs[0].bit_generator.state == rngs[1].bit_generator.state)
    return CheckResult("normal_kernels", same,
                       f"c vs numpy, {n} draws: values and generator state "
                       f"{'equal' if same else 'differ'} byte for byte")


def check_checkpoint_mapping() -> CheckResult:
    """Values loaded from a checkpoint stay bit-identical while a save replaces
    its file, and a version 3 header is rejected."""
    cfg = ModelConfig(m_tx=2, n_ue=2, k_sc=8, fc_widths_bf=(16,), fc_widths_pw=(16,))
    with tempfile.TemporaryDirectory(prefix="beamopt-verify-") as tmp:
        path = os.path.join(tmp, "m.ckpt")
        models.save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(31)))
        _, loaded = models.load_checkpoint(path)
        before = loaded.flat.tobytes()
        models.save_checkpoint(path, cfg, init_params(cfg, np.random.default_rng(32)))
        kept = before == loaded.flat.tobytes()
        with open(path, "r+b") as f:
            f.write(b"BMCK" + struct.pack("<I", 3))
        try:
            models.load_checkpoint(path)
            rejected = False
        except models.CheckpointError:
            rejected = True
    return CheckResult("checkpoint_mapping", kept and rejected,
                       f"{'mapped' if not loaded.flat.flags.owndata else 'copied'} values "
                       f"{'kept' if kept else 'changed'} across a save to their path, "
                       f"version 3 header {'rejected' if rejected else 'accepted'}")


ALL_CHECKS = (
    check_zf_nulling,
    check_batched_classical,
    check_closed_form_classical,
    check_eval_classical_rows,
    check_mmse_zf_limit,
    check_structure_collinearity,
    check_structure_oracle,
    check_fixed_point,
    check_metrics_oracle,
    check_grad_gelu,
    check_grad_linear,
    check_grad_softmax,
    check_grad_conv,
    check_grad_batchnorm,
    check_grad_conv_bn_gelu,
    check_grad_sum_rates,
    check_grad_unit_beams,
    check_grad_full_loss,
    check_constraints,
    check_softmax_rows,
    check_adam_bowl,
    check_adam_kernels,
    check_factored_weight_gradients,
    check_normal_kernels,
    check_rate_bound,
    check_checkpoint_mapping,
)


def run_checks() -> list[CheckResult]:
    """Every check's result, with its wall time."""
    results = []
    for check in ALL_CHECKS:
        t0 = time.perf_counter()
        result = check()
        results.append(replace(result, seconds=time.perf_counter() - t0))
    return results
