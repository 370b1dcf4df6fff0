"""Fast self-check suite: nulling, limiting cases, gradient spot checks,
and constraint satisfaction, all on fixed seeds. Intended to finish in
well under a minute; the CLI exits non-zero if any check fails.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import baselines, kernels, metrics
from .models import ModelConfig, forward_graph, init_params, unit_beams


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
            w, _ = baselines.zf_beamformer(h[k])
            cross = h[k].T @ w
            np.fill_diagonal(cross, 0.0)
            worst = max(worst, float(np.max(np.abs(cross))))
    return CheckResult("zf_nulling", worst <= 1e-9, f"max cross gain {worst:.2e}")


def check_batched_classical() -> CheckResult:
    rng = np.random.default_rng(25)
    h = _rand_channel(rng, 24, 4, 3).reshape(3, 8, 4, 3)
    reg = rng.uniform(0.1, 2.0, (3, 8))
    w_zf, _ = baselines.inverse_directions(h)
    w_mm, _ = baselines.inverse_directions(h, reg)
    worst = 0.0
    for idx in np.ndindex(3, 8):
        ref_mm, _ = baselines.mmse_beamformer(h[idx], reg[idx])
        worst = max(worst, float(np.max(np.abs(w_zf[idx] - baselines.zf_beamformer(h[idx])[0]))),
                    float(np.max(np.abs(w_mm[idx] - ref_mm))))
    return CheckResult("batched_classical", worst <= 1e-10, f"max deviation {worst:.2e}")


def check_mmse_zf_limit() -> CheckResult:
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        h = _rand_channel(rng, 1, 4, 4)[0]
        w_zf, _ = baselines.zf_beamformer(h)
        w_mm, _ = baselines.mmse_beamformer(h, 1e-12)
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
        w, _ = baselines.optimal_structure_bf(
            h, baselines.VirtualUplinkPowers(np.array([lam])), np.ones(1), 1.0)
        mf = baselines.matched_filter(h)
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
        w, _ = baselines.optimal_structure_bf(h, baselines.VirtualUplinkPowers(lam),
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
        lam = baselines.solve_virtual_uplink_powers(h, np.ones(2), 0.5)
        sinrs = baselines.virtual_uplink_sinrs(h, lam.lam, 0.5)
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
        bf = metrics.BeamformerSet(w_tilde=w, p=p, p_max=float(n))
        gamma = metrics.sinr_per_ue(h, bf, sigma2)
        for kk in range(k):
            for nn in range(n):
                sig = p[nn] * abs(np.dot(h[kk, :, nn], w[kk, :, nn])) ** 2
                intf = sum(p[ii] * abs(np.dot(h[kk, :, nn], w[kk, :, ii])) ** 2
                           for ii in range(n) if ii != nn)
                worst = max(worst, abs(gamma[kk, nn] - sig / (intf + sigma2[nn])))
    return CheckResult("metrics_oracle", worst <= 1e-12, f"max deviation {worst:.2e}")


def check_grad_gelu() -> CheckResult:
    rng = np.random.default_rng(17)
    ok, detail = _grad_check(lambda t: ad.tmean(ad.gelu(t)), [rng.standard_normal(16)], 1e-5)
    return CheckResult("grad_gelu", ok, detail)


def check_grad_linear() -> CheckResult:
    rng = np.random.default_rng(18)
    w = rng.standard_normal((3, 5))
    b = rng.standard_normal(3)

    def build(t):
        y = ad.linear(t, ad.Tensor(w), ad.Tensor(b))
        return ad.tmean(y * y)

    ok, detail = _grad_check(build, [rng.standard_normal((4, 5))], 1e-5)
    return CheckResult("grad_linear", ok, detail)


def check_grad_softmax() -> CheckResult:
    rng = np.random.default_rng(19)
    mixer = rng.standard_normal((4, 6))
    ok, detail = _grad_check(lambda t: ad.tmean(ad.softmax(t, axis=1) * mixer),
                             [rng.standard_normal((4, 6))], 1e-5)
    return CheckResult("grad_softmax", ok, detail)


def check_grad_conv() -> CheckResult:
    rng = np.random.default_rng(20)
    w = rng.standard_normal((3, 2, 3))

    def build(t):
        y = ad.conv1d(t, ad.Tensor(w), stride=2, padding=1)
        return ad.tmean(y * y)

    ok, detail = _grad_check(build, [rng.standard_normal((2, 2, 8))], 1e-5)
    return CheckResult("grad_conv1d", ok, detail)


def check_grad_batchnorm() -> CheckResult:
    rng = np.random.default_rng(21)
    gamma = rng.uniform(0.5, 1.5, 3)
    beta = rng.standard_normal(3)
    mixer = rng.standard_normal((2, 3, 4))

    def build(t):
        state = ad.BatchNormState.fresh(3)
        y = ad.batchnorm1d(t, ad.Tensor(gamma), ad.Tensor(beta), state, training=True)
        return ad.tmean(y * mixer)

    ok, detail = _grad_check(build, [rng.standard_normal((2, 3, 4))], 1e-5)
    return CheckResult("grad_batchnorm", ok, detail)


def check_grad_basic_block() -> CheckResult:
    """All four VJPs of the fused conv -> batch norm -> GELU op, stride 2."""
    rng = np.random.default_rng(27)
    mixer = rng.standard_normal((2, 4, 3))

    def build(x, w, gamma, beta):
        y = ad.conv_bn_gelu(x, w, gamma, beta, ad.BatchNormState.fresh(3),
                            training=True, stride=2, padding=1)
        return ad.tmean(y * mixer)

    xw = rng.standard_normal(50)
    inputs = [xw[:32].reshape(2, 8, 2), xw[32:].reshape(3, 2, 3), rng.uniform(0.5, 1.5, 3),
              rng.standard_normal(3)]
    ok, detail = _grad_check(build, inputs, 1e-5)
    return CheckResult("grad_basic_block", ok, detail)


def check_grad_sum_rates() -> CheckResult:
    """The closed-form pull of metrics.sum_rates against FD, beams and powers."""
    rng = np.random.default_rng(28)
    b, k, m, n = 2, 3, 3, 2
    h = _rand_channel(rng, b * k, m, n).reshape(b, k, m, n)
    sigma2 = rng.uniform(0.3, 2.0, (b, n))
    mixer = rng.standard_normal(b)
    wr, wi = rng.standard_normal((2, b, k, m, n))
    p = rng.uniform(0.2, 1.5, (b, n))
    ok, detail = _grad_check(
        lambda w, p: ad.tmean(metrics.sum_rates(w, h, p, sigma2) * mixer),
        [np.stack([wr, wi], axis=-1), p], 1e-5)
    return CheckResult("grad_sum_rates", ok, detail)


def check_grad_unit_beams() -> CheckResult:
    """The closed-form pull of models.unit_beams against FD."""
    rng = np.random.default_rng(29)
    b, k, m, n = 2, 2, 3, 2
    mixer = rng.standard_normal((b, k, m, n, 2))
    ok, detail = _grad_check(lambda t: ad.tmean(unit_beams(t, (b, k, m, n)) * mixer),
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
        target.data = data.reshape(target.data.shape)
        states = {k: v.copy() for k, v in params.bn_states.items()}
        w, p = forward_graph(h, params, cfg, training=True)
        for k in params.bn_states:
            params.bn_states[k] = states[k]
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
    target.data = x0
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
    rng = np.random.default_rng(24)
    x = rng.standard_normal((64, 7)) * 10
    y = ad.softmax(ad.Tensor(x), axis=1).data
    shift = ad.softmax(ad.Tensor(x + 123.0), axis=1).data
    dev = max(float(np.max(np.abs(y.sum(axis=1) - 1.0))), float(np.max(np.abs(y - shift))))
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
    designs = [(baselines.inverse_directions(h)[0], np.ones((6, 3))),
               (baselines.inverse_directions(h, sigma2.mean(axis=1)[:, None])[0], np.ones((6, 3))),
               (w_rand, 3.0 * rng.dirichlet(np.ones(3), 6))]
    worst = max(float(np.max(metrics.per_sample_sum_rates(w, h, p, sigma2) / bound))
                for w, p in designs)
    h1, s1 = h[..., :1], sigma2[:, :1]
    w_mf = h1.conj() / np.linalg.norm(h1, axis=2, keepdims=True)
    attained = metrics.per_sample_sum_rates(w_mf, h1, np.ones((6, 1)), s1)
    bound1 = metrics.sum_rate_bound((np.abs(h1) ** 2).sum(axis=2), s1)
    gap = float(np.max(np.abs(attained / bound1 - 1.0)))
    return CheckResult("rate_bound", worst <= 1.0 + 1e-12 and gap <= 1e-12,
                       f"max rate/bound {worst:.6f}, single-UE gap {gap:.2e}")


def check_adam_bowl() -> CheckResult:
    theta = ad.Tensor(np.array([1.0]), requires_grad=True)
    opt = ad.Adam(OrderedDict(theta=theta), lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        with ad.Tape() as tape:
            loss = ad.tmean(theta * theta)
        tape.backward(loss)
        opt.step()
    val = abs(float(theta.data[0]))
    return CheckResult("adam_quadratic_bowl", val < 1e-2, f"|theta| {val:.2e}, {opt.kernel} kernel")


def check_adam_kernels() -> CheckResult:
    """The compiled Adam kernel writes the numpy kernel's bytes over 3 steps."""
    states = []
    for kernel in ("c", "numpy"):
        rng = np.random.default_rng(17)
        params = OrderedDict((f"t{i}", ad.Tensor(rng.standard_normal(shape), requires_grad=True))
                             for i, shape in enumerate(((5, 3), (7,), (2, 4, 3))))
        opt = ad.Adam(params, lr=0.01)
        if kernel == "numpy":
            opt._kernel = None
        elif opt.kernel != "c":
            return CheckResult("adam_kernels", True, "numpy kernel only: no C kernel was built")
        for _ in range(3):
            for p in params.values():
                p.grad = rng.standard_normal(p.data.shape) * 10.0 ** rng.integers(-8, 3)
            opt.step()
        states.append([a.tobytes() for a in (ad.flat_buffer(params.values()), opt._m, opt._v)])
    return CheckResult("adam_kernels", states[0] == states[1],
                       f"c vs numpy, 3 steps: parameters and moments "
                       f"{'equal' if states[0] == states[1] else 'differ'} byte for byte")



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

ALL_CHECKS = (
    check_zf_nulling,
    check_batched_classical,
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
    check_grad_basic_block,
    check_grad_sum_rates,
    check_grad_unit_beams,
    check_grad_full_loss,
    check_constraints,
    check_softmax_rows,
    check_adam_bowl,
    check_adam_kernels,
    check_normal_kernels,
    check_rate_bound,
)


def run_checks() -> list[CheckResult]:
    """Every check's result, with its wall time."""
    results = []
    for check in ALL_CHECKS:
        t0 = time.perf_counter()
        result = check()
        results.append(replace(result, seconds=time.perf_counter() - t0))
    return results
