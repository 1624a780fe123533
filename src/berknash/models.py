"""Subjective model families, KL costs, and the long-run divergence functional."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import MDPInstance, ROW_SUM_TOL


@dataclass(frozen=True)
class SubjectiveKernel:
    """One conjectured transition kernel, tagged with a parameter descriptor.

    ``param`` is the parameter value that produced the kernel (the mixture
    weight for mixture families), or None for arbitrary tabular conjectures.
    """

    kernel: np.ndarray
    label: str
    param: float | None = None

    def __post_init__(self):
        kernel = np.ascontiguousarray(np.asarray(self.kernel, dtype=float))
        kernel.setflags(write=False)
        object.__setattr__(self, "kernel", kernel)
        bad = ((np.abs(kernel.sum(axis=-1) - 1.0) > ROW_SUM_TOL)
               | (kernel < 0.0).any(axis=-1) | ~np.isfinite(kernel).all(axis=-1))
        if bad.any():
            x, a = np.argwhere(bad)[0]
            raise ValueError(
                f"subjective kernel '{self.label}' is not row-stochastic at (x={x}, a={a})"
            )


@dataclass(frozen=True)
class ConjectureSet:
    """An ordered finite set of conjectured kernels."""

    members: tuple[SubjectiveKernel, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("conjecture set must be nonempty")
        labels = [mem.label for mem in members]
        if len(set(labels)) != len(labels):
            raise ValueError(f"conjecture labels must be unique, got {labels}")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def kl_divergence(nu: np.ndarray, mu: np.ndarray) -> float | np.ndarray:
    """KL divergence sum nu(i) log(nu(i)/mu(i)) along the last axis; terms
    with nu(i)=0 contribute 0. A vector gives a float, a stack of rows an
    array with one value per row.

    Requires nu << mu; raises naming the first coordinate where absolute
    continuity fails, after the row as (x=..., a=...) for stacks.
    """
    nu = np.asarray(nu, dtype=float)
    mu = np.asarray(mu, dtype=float)
    support = nu > 0.0
    bad = np.argwhere(support & (mu <= 0.0))
    if bad.size:
        idx = tuple(bad[0])
        where = ", ".join(f"{name}={j}" for name, j in zip("xa", idx[:-1]))
        raise ValueError(
            (f"at ({where}): " if where else "")
            + f"absolute continuity violated at coordinate {idx[-1]}: "
            f"nu={nu[idx]:.6g} but mu={mu[idx]:.6g}"
        )
    terms = np.zeros(nu.shape)
    terms[support] = nu[support] * np.log(nu[support] / mu[support])
    # Gibbs' inequality: any negative result is rounding noise (ulp-scale,
    # from nearly identical rows), so it is clamped rather than returned.
    val = np.maximum(0.0, terms.sum(axis=-1))
    return float(val) if val.ndim == 0 else val


def kl_cost_table(m: MDPInstance, q: SubjectiveKernel | np.ndarray) -> np.ndarray:
    """Per-(x,a) KL cost of conjecturing ``q`` when the truth is ``m.kernel``."""
    Q = q.kernel if isinstance(q, SubjectiveKernel) else np.asarray(q, dtype=float)
    return kl_divergence(m.kernel, Q)


def long_run_divergence(d: np.ndarray, c: np.ndarray) -> float:
    """Frequency-weighted KL cost sum_{x,a} d(x,a) c(x,a); linear in d."""
    return float(np.sum(np.asarray(d, dtype=float) * np.asarray(c, dtype=float)))


def divergence_vector(m: MDPInstance, cs: ConjectureSet, d: np.ndarray) -> np.ndarray:
    """Long-run divergence of every conjecture under fixed frequencies ``d``."""
    return np.array([long_run_divergence(d, kl_cost_table(m, q)) for q in cs])


def mixture_kernel(m: MDPInstance, eps: float) -> SubjectiveKernel:
    """Conjecture that blends the true kernel with uniform noise of weight eps."""
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"mixture weight must lie in [0, 1], got {eps}")
    S = m.num_states
    Q = (1.0 - eps) * m.kernel + eps / S
    # the short form where it reads back as eps, so distinct weights never share a label
    short = f"{eps:g}"
    label = f"eps={short if float(short) == eps else repr(float(eps))}"
    return SubjectiveKernel(kernel=Q, label=label, param=float(eps))


def mixture_family(m: MDPInstance, eps_values) -> ConjectureSet:
    """Finite conjecture set of uniform-noise mixtures at the given weights."""
    members = tuple(mixture_kernel(m, float(e)) for e in eps_values)
    return ConjectureSet(members=members)
