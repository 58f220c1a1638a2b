"""The benchmark's workloads.  Each is a closed loop of one caller: `step`
starts again only after the previous call returned.

A workload builds everything it needs in `setup` (timed, repeated), runs
`step(i)` in the timed loop, checks each step's output in `check(i, out)`
outside the timed region, and runs its end-of-run checks in
`final_checks`.  `probe` returns report-only numbers measured without
tracing.  Inputs are generated here from the seed; the package receives
only arrays.
"""

from __future__ import annotations

import math
import os
import time
from array import array

import numpy as np

from mpbnn import cli, data, mc_oracle, moments, network, objective, training

ARCHS = ("mp_gelu", "relu")
MODES = ("full", "diag")
HEAD = "heteroscedastic2"
Q = 13
WIDTH = 20
DROPOUT = 0.05
LR = 0.001
BATCH = 256
# Worker processes of protocol-diag's pool, and of the pool reference.
POOL_JOBS = min(2, len(os.sched_getaffinity(0)))


def boston_like(seed, n=506, q=Q):
    """Synthetic data shaped like the Boston housing set: N rows of Q
    correlated features of mixed kinds (skewed, binary, near-constant
    spread) and a positive label with input-dependent noise."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 506)))
    z = rng.standard_normal((n, q)) @ (np.eye(q) + rng.normal(0.0, 0.3, (q, q)))
    x = z.copy()
    x[:, 0] = np.exp(z[:, 0])
    x[:, 3] = (z[:, 3] > 1.0).astype(float)
    x[:, 5] = 6.0 + 0.7 * z[:, 5]
    signal = 6.0 * np.tanh(z @ rng.normal(0.0, 1.0, q) / math.sqrt(q)) + 0.8 * z[:, 5] ** 2
    y = 22.0 + signal + rng.standard_normal(n) * (1.5 + np.abs(z[:, 0]))
    return x, y


def _standardize(a):
    return (a - a.mean(axis=0)) / a.std(axis=0)


def _fd_spot_checks(config, params, xs, ys, rng, count=4, h=1e-5):
    """Central differences on `count` random parameter entries against the
    analytic gradient, with the tolerances of `mpbnn check`."""
    _, grads = training.loss_and_gradients(config, params, xs, ys)
    failures = []
    for _ in range(count):
        li = int(rng.integers(len(params.weights)))
        is_weight = rng.random() < 0.75
        arr = params.weights[li] if is_weight else params.biases[li]
        garr = grads.weights[li] if is_weight else grads.biases[li]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        lp, _ = training.loss_and_gradients(config, params, xs, ys)
        arr[idx] = orig - h
        lm, _ = training.loss_and_gradients(config, params, xs, ys)
        arr[idx] = orig
        fd = (lp - lm) / (2.0 * h)
        an = float(garr[idx])
        ok = abs(an - fd) < 1e-7 if abs(an) < 1e-3 else abs(an - fd) / abs(an) < 1e-4
        if not ok:
            kind = "weight" if is_weight else "bias"
            failures.append(f"fd {kind} layer {li} {idx}: analytic {an!r} vs fd {fd!r}")
    return count, failures


class TrainFull:
    """Full-covariance training of both architectures: the compute-bound
    regime, where the dense `W Σ Wᵀ` GEMM and its adjoint do most of the
    work.  One step is one `train` epoch of each architecture over the N
    rows, i.e. 2 SGD steps of at most 256 rows per architecture."""

    name = "train-full"
    reference = "batched"

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.n = 64 if tiny else 506
        self.batch = 32 if tiny else BATCH

    def describe(self):
        return {"n": self.n, "q": Q, "width": WIDTH, "batch": self.batch, "lr": LR,
                "mode": "full", "head": HEAD, "archs": list(ARCHS),
                "step": "one train() epoch per architecture"}

    def setup(self):
        x, y = boston_like(self.seed, self.n)
        self.x, self.y = _standardize(x), _standardize(y)
        self.models = {}
        for arch in ARCHS:
            config = network.build_model(arch, Q, WIDTH, DROPOUT, "full", HEAD)
            params = network.init_parameters(config, self.seed)
            training.loss_and_gradients(config, params, self.x[: self.batch], self.y[: self.batch])
            self.models[arch] = (config, params)

    def step(self, i):
        losses = []
        for config, params in self.models.values():
            tc = training.TrainConfig(LR, 1, self.batch, seed=i)
            _, trace = training.train(config, tc, self.x, self.y, params=params)
            losses.extend(trace)
        return losses

    def check(self, i, losses):
        if len(losses) == len(ARCHS) and all(math.isfinite(v) for v in losses):
            return None
        return f"step {i}: loss trace {losses}"

    def final_checks(self):
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 1)))
        attempted, failures = 0, []
        for arch, (config, params) in self.models.items():
            idx = rng.permutation(self.n)[: self.batch]
            n, f = _fd_spot_checks(config, params, self.x[idx], self.y[idx], rng)
            attempted += n
            failures += [f"{arch}: {msg}" for msg in f]
        return attempted, failures

    def probe(self, reps=30):
        """Gated speedup at B=256: `forward_batch` time of the rectifier
        network over that of the gated one, both modes, interleaved."""
        xs = self.x[: self.batch]
        times = {}
        for mode in MODES:
            built = {}
            for arch, (_, params) in self.models.items():
                built[arch] = (network.build_model(arch, Q, WIDTH, DROPOUT, mode, HEAD), params)
            for _ in range(reps):
                for arch, (config, params) in built.items():
                    t0 = time.perf_counter()
                    network.forward_batch(config, params, xs)
                    times.setdefault((arch, mode), []).append(time.perf_counter() - t0)
        return {f"gated_speedup.b256.{mode}": float(np.median(times[("relu", mode)])
                                                     / np.median(times[("mp_gelu", mode)]))
                for mode in MODES}


class ProtocolDiag:
    """A reduced UCI protocol in diag mode: the 4-rate grid search, the
    final trainings and the timed test pass, through `data.run_tasks` with
    a process pool.  The same training code as train-full, used the other
    way: many cheap steps, so per-call overhead, the split code and the
    pool dominate.  One step runs the protocol for both architectures."""

    name = "protocol-diag"
    reference = "pool"
    REPEATS = 2
    EPOCHS = 15

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.n = 120 if tiny else 506
        self.epochs = 2 if tiny else self.EPOCHS
        self.jobs = POOL_JOBS
        # Steps alternate between two protocol seeds, so every later step
        # repeats an earlier one and must reproduce its results exactly.
        self.protocol_seeds = [int(s) for s in np.random.SeedSequence((seed, 2)).generate_state(2)]
        self.seen = {}

    def describe(self):
        return {"n": self.n, "q": Q, "width": WIDTH, "batch": BATCH, "lr": LR,
                "mode": "diag", "head": HEAD, "archs": list(ARCHS),
                "repeats": self.REPEATS, "epochs": self.epochs, "jobs": self.jobs,
                "grid": list(data.GRID_RATES), "step": "one run_uci_protocol per architecture"}

    def _protocol(self, seed, epochs):
        out = []
        for arch in ARCHS:
            res = cli.run_uci_protocol(self.ds, arch, "diag", HEAD, seed=seed, jobs=self.jobs,
                                       repeats=self.REPEATS, width=WIDTH, epochs=epochs,
                                       lr=LR, batch=BATCH)
            out.append((arch, res.dropout_rate, tuple(res.nll), tuple(res.rmse)))
        return out

    def setup(self):
        x, y = boston_like(self.seed, self.n)
        self.ds = data.Dataset(x, y, "boston-like")
        self._protocol(self.protocol_seeds[0], 1)

    def step(self, i):
        return self._protocol(self.protocol_seeds[i % 2], self.epochs)

    def check(self, i, out):
        for arch, rate, nll, rmse in out:
            if rate not in data.GRID_RATES or not all(map(math.isfinite, nll + rmse)):
                return f"step {i} {arch}: rate {rate}, nll {nll}, rmse {rmse}"
        first = self.seen.setdefault(i % 2, out)
        if first != out:
            return f"step {i}: results differ from an earlier run with the same seed"
        return None

    def final_checks(self):
        return 0, []

    def probe(self):
        return {}


class PredictSingle:
    """The public per-example path, `network.forward` then
    `objective.predictive_moments`, for gated/rectifier × full/diag at
    width 20.  One step is one test row through all four models, so calls
    interleave over models and rows.  This is the overhead-bound regime of
    the paper's runtime claim."""

    name = "predict-single"
    reference = "small"

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.n_test = 8 if tiny else 51
        self.expected = None

    def describe(self):
        return {"test_rows": self.n_test, "q": Q, "width": WIDTH, "head": HEAD,
                "archs": list(ARCHS), "modes": list(MODES),
                "step": "one test row through all four models"}

    def setup(self):
        x, _ = boston_like(self.seed)
        self.rows = _standardize(x)[-self.n_test:]
        self.models = []
        for arch in ARCHS:
            params = None
            for mode in MODES:
                config = network.build_model(arch, Q, WIDTH, DROPOUT, mode, HEAD)
                if params is None:  # both modes share one set: same dense shapes
                    params = network.init_parameters(config, self.seed)
                objective.predictive_moments(network.forward(config, params, self.rows[0]), HEAD)
                self.models.append(((arch, mode), config, params))
        self.times = {key: array("d") for key, _, _ in self.models}

    def step(self, i):
        x = self.rows[i % self.n_test]
        out = []
        for key, config, params in self.models:
            t0 = time.perf_counter()
            mv = network.forward(config, params, x)
            pm = objective.predictive_moments(mv, config.head)
            self.times[key].append(time.perf_counter() - t0)
            out.append((mv, pm))
        return out

    def check(self, i, out):
        if self.expected is None:
            self.expected = [network.forward_batch(config, params, self.rows)
                              for _, config, params in self.models]
        r = i % self.n_test
        for (key, _, _), (mv, pm), (means, covs) in zip(self.models, out, self.expected):
            if not (np.allclose(mv.mean, means[r], rtol=1e-10, atol=1e-12)
                    and np.allclose(mv.cov, covs[r], rtol=1e-10, atol=1e-12)):
                return f"step {i} {key}: forward differs from forward_batch row {r}"
            if not pm.variance >= objective.VARIANCE_FLOOR:
                return f"step {i} {key}: predictive variance {pm.variance} below the floor"
        return None

    def final_checks(self):
        return 0, []

    def probe(self):
        """Gated speedup at B=1 from this phase's per-model call times."""
        med = {key: float(np.median(t)) for key, t in self.times.items()}
        return {f"gated_speedup.b1.{mode}": med[("relu", mode)] / med[("mp_gelu", mode)]
                for mode in MODES}


def _oracle_case(rng, mode, n=4, corr=0.45):
    """A Gaussian input with |μ/σ| ≤ 2.2 and, in full mode, correlations of
    about `corr`: the kind of case `mpbnn check` compares the oracle on."""
    sigma = rng.uniform(0.5, 1.5, n)
    mean = rng.uniform(-2.2, 2.2, n) * sigma
    if mode == "diag":
        return moments.MomentVector(mean, sigma * sigma, mode)
    a = rng.standard_normal((n, n))
    r = a @ a.T
    d = np.sqrt(np.diag(r))
    r = corr * r / np.outer(d, d) + (1.0 - corr) * np.eye(n)
    return moments.MomentVector(mean, r * np.outer(sigma, sigma), mode)


class SelfCheck:
    """The self-check machinery: the MC oracle at 10⁵ draws (between the
    10⁴ of `mpbnn check --level quick` and the 10⁶ of `--level full`) on
    one case of every layer kind × mode and one of the objective, then
    `cli._check_gradients`, the finite-difference sweep of 8 small models
    (about 1400 B=3 `loss_and_gradients` calls).  The only workload that
    runs `mc_oracle`.  Steps alternate between two case seeds, so every
    later step repeats an earlier one.

    It does not call `cli.run_self_checks`, whose 4-se comparisons raise
    false alarms on some seeds (see README.md).  Instead each oracle
    estimate must repeat exactly and lie within Z standard errors of the
    closed form, a bound that the many comparisons of a benchmark session
    do not cross by chance."""

    name = "selfcheck"
    reference = "pool"
    KINDS = (network.DENSE, network.DROPOUT, network.MP_GELU, network.RELU)
    SAMPLES = 10**5
    Z = 6.0
    # The closed form's relu cross-covariance is first order; `mpbnn check`
    # accepts it within 0.15 of the scale.
    RELU_CROSS_TOL = 0.15

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.seeds = [int(s) for s in np.random.SeedSequence((seed, 4)).generate_state(2)]
        self.seen = {}

    def describe(self):
        return {"samples": self.SAMPLES, "kinds": list(self.KINDS), "modes": list(MODES),
                "fd_check": "cli._check_gradients",
                "step": "one oracle call per layer kind x mode and one on the objective,"
                        " then one _check_gradients sweep"}

    def setup(self):
        """The cases of both seeds with their closed-form moments."""
        self.cases = []
        for seed in self.seeds:
            rng = np.random.default_rng(seed)
            layers = []
            for mode in MODES:
                for kind in self.KINDS:
                    mv = _oracle_case(rng, mode)
                    kw = {}
                    if kind == network.DENSE:
                        kw = {"weights": rng.standard_normal((3, mv.dim)),
                              "bias": rng.standard_normal(3)}
                        spec = network.LayerSpec(kind, in_dim=mv.dim, out_dim=3)
                        closed = moments.dense_propagate(mv, kw["weights"], kw["bias"])
                    elif kind == network.DROPOUT:
                        spec = network.LayerSpec(kind, rate=0.13)
                        closed = moments.dropout_propagate(mv, 0.13)
                    elif kind == network.MP_GELU:
                        spec, closed = network.LayerSpec(kind), moments.mp_gelu_propagate(mv)
                    else:
                        spec, closed = network.LayerSpec(kind), moments.relu_propagate(mv)
                    layers.append((spec, mv, kw, closed))
            a = rng.standard_normal((2, 2))
            head = moments.MomentVector(rng.uniform(-2.0, 2.0, 2),
                                        a @ a.T * 0.4 + np.eye(2) * 0.05, "full")
            y = float(rng.uniform(-2.0, 2.0))
            self.cases.append((seed, layers, (head, y, objective.expected_log_likelihood(head, y))))

    def step(self, i):
        seed, layers, (head, y, _) = self.cases[i % 2]
        estimates = [mc_oracle.mc_layer_moments(layer, mv, self.SAMPLES, seed, **kw)
                     for layer, mv, kw, _ in layers]
        ell = mc_oracle.mc_expected_ll(head, y, self.SAMPLES, seed)
        return estimates, ell, list(cli._check_gradients(seed))

    def _off(self, layer, closed, est):
        """True when the estimate is further from the closed form than allowed."""
        if np.any(np.abs(closed.mean - est.mean) > self.Z * est.standard_error_mean):
            return True
        if closed.mode == "diag":
            return np.any(np.abs(closed.variances - np.diag(est.cov))
                          > self.Z * np.diag(est.standard_error_cov))
        bound = self.Z * est.standard_error_cov
        if layer.kind == network.RELU:
            sd = np.sqrt(closed.variances)
            off = ~np.eye(len(sd), dtype=bool)
            bound[off] = np.maximum(bound, self.RELU_CROSS_TOL * np.outer(sd, sd))[off]
        return np.any(np.abs(np.asarray(closed.cov) - est.cov) > bound)

    def check(self, i, out):
        estimates, (ell, ell_se), checks = out
        failed = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
        _, layers, (_, _, closed_ell) = self.cases[i % 2]
        for (layer, mv, _, closed), est in zip(layers, estimates):
            if self._off(layer, closed, est):
                failed.append(f"oracle {layer.kind} {mv.mode} far from the closed form")
        if not abs(ell - closed_ell) <= self.Z * ell_se:
            failed.append(f"oracle ell {ell!r} ± {ell_se!r} vs closed form {closed_ell!r}")
        key = ([(e.mean.tobytes(), e.cov.tobytes(), e.standard_error_cov.tobytes())
                for e in estimates], ell, ell_se, checks)
        if self.seen.setdefault(i % 2, key) != key:
            failed.append("results differ from an earlier step with the same seed")
        if not checks:
            failed.append("no gradient checks ran")
        return f"step {i}: {failed}" if failed else None

    def final_checks(self):
        return 0, []

    def probe(self):
        return {}


WORKLOADS = {w.name: w for w in (TrainFull, ProtocolDiag, PredictSingle, SelfCheck)}
