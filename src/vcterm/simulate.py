"""Synthetic longitudinal cohorts with a terminal event and informative censoring.

Per subject: roughly annual visit times, a time-varying covariate process
correlated with a scalar covariate, event and censoring times driven by
covariate-dependent truncated-exponential rates, and an error process that
adds a decaying-variance correlated component to white noise. Responses
follow the varying-coefficient model in (visit time, time-to-event).

gen_dataset draws each subject's numbers from its own stream, then maps them
to covariates, errors and event times on stacks of subjects. Subject i's
stream is the PCG64 that np.random.default_rng gives child i of the cohort's
SeedSequence; _child_states derives all of those PCG64 states in one pass,
and gen_dataset checks its first and last against numpy before drawing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import NumericalError

BETA_MODES = ("surfaces", "constant")

_CLAMP = 1e-12
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
BLOCK_SUBJECTS = 32  # subjects per stacked factorization; bounds the stacks' memory for any n
# the bound on n * (m + 2), the size of the draw arrays, and on
# BLOCK_SUBJECTS * (m + 2)**2, the size of a block of covariances
MAX_CELLS = 2**24
NU_MIN = 1e-150  # the visit-time Beta parameters, below 1 / (4 nu^2), then stay finite

# numpy's SeedSequence hash constants and PCG64 multiplier, fixed by NumPy's
# stream-compatibility policy (NEP 19); see _child_states
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size, which every spawn_stateless child has
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class SimConfig:
    """Full description of one synthetic cohort.

    event_coefs / censor_coefs act on (X2, X3(0), 1) inside an exponential
    rate; the raw event and censoring delays live on [0, truncation] and are
    shifted by ``shift``. zero_errors and beta_mode="constant" give the
    noiseless exact-recovery configuration.
    """

    n: int
    m: int = 20
    p: int = 3
    nu: float = 0.01
    event_coefs: tuple = (3.0, 1.0, -5.0)
    censor_coefs: tuple = (1.0, 3.0, -5.0)
    truncation: float = 15.0
    shift: float = 5.0
    error_var_params: tuple = (1.0, -0.1)
    error_corr_base: float = 0.5
    white_noise_var: float = 1.0
    seed: int = 0
    zero_errors: bool = False
    beta_mode: str = "surfaces"
    constant_beta: tuple = (2.0, -1.0, 0.5)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 1 <= self.p <= 3:
            raise ValueError("p must be 1, 2, or 3")
        if not 0.0 < self.nu <= 0.5:
            raise ValueError("nu must be in (0, 0.5]")
        if self.nu < NU_MIN:
            raise ValueError(f"nu must be at least {NU_MIN:g}, or the visit-time draws overflow")
        cells = max(self.n, BLOCK_SUBJECTS * (self.m + 2)) * (self.m + 2)
        if cells > MAX_CELLS:  # checked before gen_dataset allocates anything
            raise ValueError(f"n={self.n} and m={self.m} need {cells} numbers per array; "
                             f"at most {MAX_CELLS} are allowed")
        for name, size in (("event_coefs", 3), ("censor_coefs", 3), ("error_var_params", 2)):
            if len(getattr(self, name)) != size:
                raise ValueError(f"{name} must have {size} entries")
        if not self.truncation > 0:
            raise ValueError("truncation must be positive")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")
        if not 0.0 < self.error_corr_base <= 1.0:
            raise ValueError("error_corr_base must be in (0, 1]")
        if self.white_noise_var < 0:
            raise ValueError("white_noise_var must be nonnegative")
        if self.beta_mode not in BETA_MODES:
            raise ValueError(f"beta_mode must be one of {BETA_MODES}")
        if len(self.constant_beta) < self.p:
            raise ValueError("constant_beta must provide one value per coefficient")
        for name in ("event_coefs", "censor_coefs", "truncation", "shift", "error_var_params",
                     "white_noise_var", "constant_beta"):  # the other floats' ranges are finite
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class TruthRecord:
    """Generator-side values hidden from the estimator."""

    subject_id: str
    x2: float
    x3_at_zero: float
    event_time: float
    censor_time: float
    event_observed: bool


def true_beta(k: int, x, y):
    """The three coefficient surfaces over (visit time, time-to-event)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if k == 1:
        out = (x / 4.0) * np.exp(-(x * x + y * y) / 100.0)
    elif k == 2:
        out = 0.5 * (np.sin(2.0 * x / 5.0) - np.sin(y / 2.0))
    elif k == 3:
        out = np.cos((x * x + y * y) / 100.0)
    else:
        raise ValueError("k must be 1, 2, or 3")
    if out.ndim == 0:
        return float(out)
    return out


def beta_value(config: SimConfig, k: int, x, y):
    """Coefficient k of the configured model at (x, y)."""
    if not 1 <= k <= config.p:
        raise ValueError(f"k must be in 1..{config.p}")
    if config.beta_mode == "constant":
        shape, c = np.broadcast_shapes(np.shape(x), np.shape(y)), float(config.constant_beta[k - 1])
        return np.full(shape, c) if shape else c
    return true_beta(k, x, y)


def _chol_with_jitter(sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor with escalating diagonal jitter up to 1e-6."""
    dim = sigma.shape[0]
    eye = np.eye(dim)
    for jit in _JITTERS:
        try:
            return np.linalg.cholesky(sigma + jit * eye if jit else sigma), jit
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"covariance factorization failed after jitter up to {_JITTERS[-1]:g} (dim={dim})"
    )


def _cholesky(sigma: np.ndarray) -> np.ndarray:
    """Cholesky factors of one covariance or of a stack, in one numpy call.

    When any matrix is rejected, each matrix of the stack climbs the jitter
    ladder of _chol_with_jitter on its own; one that needs no jitter gets
    the same factor either way.
    """
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        flat = sigma.reshape((-1,) + sigma.shape[-2:])
        return np.stack([_chol_with_jitter(s)[0] for s in flat]).reshape(sigma.shape)


def _correlate(sigma: np.ndarray, z: np.ndarray) -> np.ndarray:
    """L @ z per covariance, with L its Cholesky factor and z its standard normals."""
    return np.matmul(_cholesky(sigma), z[..., None])[..., 0]


def covariate_covariance(times) -> np.ndarray:
    """Joint covariance of (X2, X3(t) for t in times); a stack for stacked times."""
    t = np.asarray(times, dtype=float)
    dim = t.shape[-1] + 1
    sigma = np.empty(t.shape[:-1] + (dim, dim))
    sigma[..., 0, 0] = 1.0
    cross = 0.8 * np.exp(-t * t)
    sigma[..., 0, 1:] = cross
    sigma[..., 1:, 0] = cross
    diff = t[..., :, None] - t[..., None, :]
    sigma[..., 1:, 1:] = np.exp(-diff * diff)
    return sigma


def trunc_exp_inverse(u: float, rate: float, upper: float) -> float:
    """Inverse CDF of an Exponential(rate) truncated to [0, upper]."""
    return -math.log1p(u * math.expm1(-rate * upper)) / rate


def _event_times(u_event: float, u_cens: float, x2: float, x3_0: float,
                 config: SimConfig) -> tuple[float, float]:
    """(event time, censoring time) in [shift, shift + truncation], from two uniforms;
    NumericalError naming the config key if a rate exp(a*X2 + b*X3(0) + c) is not in (0, inf)."""
    times = []
    for u, key in ((u_event, "event_coefs"), (u_cens, "censor_coefs")):
        a, b, c = getattr(config, key)
        try:
            rate = math.exp(a * x2 + b * x3_0 + c)
        except OverflowError:
            rate = math.inf
        if not 0.0 < rate < math.inf:
            raise NumericalError(f"config key {key}: the rate exp(a*X2 + b*X3(0) + c) is {rate!r} "
                                 f"at X2={x2!r}, X3(0)={x3_0!r}; the coefficients are too extreme")
        times.append(config.shift + trunc_exp_inverse(u, rate, config.truncation))
    return tuple(times)


def error_covariance(times, config: SimConfig) -> np.ndarray:
    """Covariance of the correlated error component on the given times;
    a stack for stacked times."""
    t = np.asarray(times, dtype=float)
    a, b = config.error_var_params
    sd = np.exp(0.5 * (a + b * t))
    gaps = np.abs(t[..., :, None] - t[..., None, :])
    return sd[..., :, None] * sd[..., None, :] * config.error_corr_base**gaps


def _errors(times, z_corr, z_white, config: SimConfig) -> np.ndarray:
    """Correlated component from z_corr plus white noise from z_white."""
    return (_correlate(error_covariance(times, config), z_corr)
            + math.sqrt(config.white_noise_var) * z_white)


def _child(seq: np.random.SeedSequence, i: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seq.entropy, spawn_key=tuple(seq.spawn_key) + (i,))


def spawn_stateless(seq: np.random.SeedSequence, count: int):
    """The first `count` children of a seed sequence, without mutating it.

    Unlike SeedSequence.spawn, calling this twice gives the same children,
    so a dataset can be regenerated from the same sequence object.
    """
    return [_child(seq, i) for i in range(count)]


def _words(x) -> list:
    """The uint32 words that SeedSequence reads from an entropy or spawn-key value."""
    if isinstance(x, (int, np.integer)):
        x, out = int(x), []
        while True:  # little-endian; 0 is one word
            out.append(x & _M32)
            x >>= 32
            if not x:
                return out
    if isinstance(x, str):
        return _words(int(x, 16) if x.startswith("0x") else int(x))
    return [w for v in x for w in _words(v)]


def _hash_steps(init: int, mult: int):
    """SeedSequence's running hash constant: (value, value * mult) per hash."""
    while True:
        nxt = init * mult & _M32
        yield init, nxt
        init = nxt


def _hashmix(v, steps):
    """SeedSequence's hashmix of a word, an int or a uint64 array of words."""
    xor, mul = next(steps)
    v = (v ^ xor) * mul & _M32
    return v ^ v >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _child_states(seq: np.random.SeedSequence, count: int) -> list:
    """The PCG64 (state, inc) that np.random.default_rng(c) gets for each c in
    spawn_stateless(seq, count), for count up to 2**32, in one pass.

    Child i's entropy words are the run entropy zero-padded to the pool
    size, the parent's spawn key, then i. SeedSequence mixes its words in
    order, so the shared words are mixed once, in ints; the index word and
    generate_state(4, uint64) run on uint64 arrays of all children, and
    PCG64's seeding (two LCG steps from state 0, O'Neill 2014) on 128-bit ints.
    """
    run = _words(seq.entropy)
    words = run + [0] * (_POOL - len(run)) + _words(seq.spawn_key)
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hashmix(w, steps) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps))
    for w in words[_POOL:] + [np.arange(count, dtype=np.uint64)]:
        pool = [_mix(p, _hashmix(w, steps)) for p in pool]
    steps = _hash_steps(_INIT_B, _MULT_B)
    out = [_hashmix(pool[j % _POOL], steps) for j in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (out[j] | out[j + 1] << 32).tolist() for j in range(0, 8, 2))
    states = []
    for a, b, c, d in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((c << 64 | d) << 1 | 1) & _M128
        states.append(((((a << 64 | b) + inc) * _PCG_MULT + inc) & _M128, inc))
    return states


def _child_rngs(seq: np.random.SeedSequence, count: int):
    """Yield np.random.default_rng(c) for each c in spawn_stateless(seq, count),
    as one Generator reloaded with each child's state from _child_states.
    RuntimeError if the first or last state differs from numpy's own seeding."""
    states = _child_states(seq, count)
    for i in (0, count - 1):
        bitgen = np.random.PCG64(_child(seq, i))
        want = bitgen.state["state"]
        if (want["state"], want["inc"]) != states[i]:
            raise RuntimeError(f"the derived PCG64 state of subject {i} differs from numpy's")
    rng = np.random.Generator(bitgen)
    for state, inc in states:
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield rng


def gen_dataset(config: SimConfig,
                seed_seq: np.random.SeedSequence | None = None
                ) -> tuple[Dataset, list[TruthRecord]]:
    """Generate a cohort; every subject uses its own RNG substream.

    Visits after min(event, censoring) are discarded; responses are built
    from the true event time even for censored subjects. Per-subject draw
    order is fixed: visit times, covariate normals, event and censoring
    uniforms, error normals. The loop over subjects only draws; the
    covariance algebra then runs on stacks of BLOCK_SUBJECTS subjects, which
    gives every subject the bits it would get on its own. RuntimeError if
    the first or last subject's derived stream state differs from numpy's;
    NumericalError, naming the config keys, if a response is not finite.
    """
    ss = np.random.SeedSequence(config.seed) if seed_seq is None else seed_seq
    n, m = config.n, config.m
    taus = np.empty((n, m))
    z_cov, uniforms = np.empty((n, m + 2)), np.empty((n, 2))
    z_err = np.empty((n, 2 * m))  # z_corr, then z_white; unused under zero_errors
    years, scale = np.arange(1.0, m), 4.0 * config.nu * config.nu
    for i, rng in enumerate(_child_rngs(ss, n)):
        # visit 1 uniform (rng.random() gives rng.uniform()'s bits), visit j in year j
        tau1 = taus[i, 0] = min(max(rng.random(), _CLAMP), 1.0 - _CLAMP)
        np.add(years, rng.beta(tau1 / scale, (1.0 - tau1) / scale, size=m - 1), out=taus[i, 1:])
        rng.standard_normal(out=z_cov[i])
        rng.random(out=uniforms[i])  # the same bits as rng.uniform(size=2)
        if not config.zero_errors:
            rng.standard_normal(out=z_err[i])
    z_corr, z_white = z_err[:, :m], z_err[:, m:]

    # X3 is also sampled at time zero, where the event rates look at it
    t_cov = np.concatenate((np.zeros((n, 1)), taus), axis=1)
    cov = np.empty((n, m + 2))  # X2, X3(0), X3 at the visits
    eps = np.zeros((n, m))
    for lo in range(0, n, BLOCK_SUBJECTS):
        rows = slice(lo, lo + BLOCK_SUBJECTS)
        cov[rows] = _correlate(covariate_covariance(t_cov[rows]), z_cov[rows])
        if not config.zero_errors:
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite errors raise below
                eps[rows] = _errors(taus[rows], z_corr[rows], z_white[rows], config)

    x2, x3_0 = cov[:, 0].tolist(), cov[:, 1].tolist()
    events = [_event_times(u_t, u_c, a, b, config)
              for (u_t, u_c), a, b in zip(uniforms.tolist(), x2, x3_0)]
    truths = [TruthRecord(f"s{i:06d}", a, b, t, c, t <= c)
              for i, (a, b, (t, c)) in enumerate(zip(x2, x3_0, events))]
    t_event, t_cens = np.array(events).T
    followup = np.minimum(t_event, t_cens)
    keep = taus <= followup[:, None]
    counts = np.count_nonzero(keep, axis=1)
    kept_t = taus[keep]
    X = np.column_stack([np.ones(kept_t.size), np.repeat(cov[:, 0], counts),
                         cov[:, 2:][keep]][: config.p])
    s_axis = np.repeat(t_event, counts) - kept_t
    y = eps[keep]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, config.p + 1):
            y += X[:, k - 1] * beta_value(config, k, kept_t, s_axis)
    if not np.isfinite(y).all():
        if not np.isfinite(eps[keep]).all():
            key, why = "key error_var_params", "the error variance overflows"
        elif config.beta_mode == "constant":
            key, why = "key constant_beta", "the coefficients are too large"
        else:  # the surfaces overflow only far out on the time-to-event axis
            key, why = "keys shift and truncation", "the event times are too large"
        raise NumericalError(f"config {key}: the simulated responses are not finite; {why}")
    # subjects without a visit before follow-up ends (only when shift < 1)
    # keep their truth row but carry no observations
    with_visits = np.flatnonzero(counts)
    dataset = Dataset.from_columns(
        [truths[i].subject_id for i in with_visits], counts[with_visits], kept_t, X, y,
        followup[with_visits], (t_event <= t_cens)[with_visits])
    return dataset, truths
