"""Seeded stochastic-block-model workloads of the agcn benchmark.

Every workload is an SBM with 256-d features in which about 80% of the
edges fall inside a block; the seed given on the command line drives both
the generator and ``TrainingConfig.seed``. The two workloads stress
different layers:

- ``sbm-k2-overcap``: the default CLI setting (k=2, pair cap 256, ten
  K-means restarts, structure mode). Almost every 2-hop list is over the
  pair cap, so the per-node pair sampler, the masked attention kernel, the
  dense n x n positive loss and the full 10 x 10 K-means all carry weight.
- ``sbm-vanilla-dense``: vanilla mode, where the dense all-pairs attention
  kernel is most of an epoch; no node is over the pair cap, so a change to
  over-cap pair sampling predicts no move here.

Graphs hold 1400-1500 nodes and epoch counts are far below the CLI default
of 200, so that a training job fits several times into a run; the work of
one epoch does not depend on the count. Both workloads keep the default
ten K-means restarts: with fewer, the Lloyd iteration count, and with it
the evaluation time, varies too much from seed to seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    blocks: int
    block_size: int
    degree: float          # expected node degree
    k: int
    lam: float
    mode: str
    restarts: int
    epochs: int
    in_block: float = 0.8  # expected share of edges inside a block
    feature_dim: int = 256
    mean_scale: float = 4.0
    noise_scale: float = 0.3

    @property
    def n_nodes(self) -> int:
        return self.blocks * self.block_size

    def sbm_args(self, seed: int) -> dict:
        """Keyword arguments of ``agcn.SBMSpec`` for this workload and seed."""
        s, n = self.block_size, self.n_nodes
        return dict(block_sizes=(s,) * self.blocks,
                    p_in=self.in_block * self.degree / (s - 1),
                    p_out=(1.0 - self.in_block) * self.degree / (n - s),
                    feature_dim=self.feature_dim, mean_scale=self.mean_scale,
                    noise_scale=self.noise_scale, seed=seed)

    def config_args(self, seed: int) -> dict:
        """Keyword arguments of ``agcn.TrainingConfig``; the rest stay default."""
        return dict(k=self.k, lam=self.lam, mode=self.mode,
                    restarts=self.restarts, epochs=self.epochs, seed=seed)

    def cli_flags(self, seed: int) -> list:
        """The same settings as ``agcn train`` flags."""
        return ["--k", str(self.k), "--lambda", repr(self.lam),
                "--mode", self.mode, "--restarts", str(self.restarts),
                "--epochs", str(self.epochs), "--seed", str(seed)]

    def record(self) -> dict:
        return asdict(self)


WORKLOADS = {w.name: w for w in (
    Workload(name="sbm-k2-overcap",
             why="default CLI setting (k=2, pair cap 256, 10 restarts) at "
                 "n=1400: over-cap pair sampling, dense positive loss and "
                 "10x10 K-means all weigh",
             blocks=7, block_size=200, degree=8, k=2, lam=1e-2,
             mode="structure", restarts=10, epochs=5),
    Workload(name="sbm-vanilla-dense",
             why="vanilla mode at n=1500: the dense all-pairs attention "
                 "kernel is most of an epoch",
             blocks=5, block_size=300, degree=8, k=1, lam=1e-2,
             mode="vanilla", restarts=10, epochs=8),
)}

# the tiny graph of the CLI-parity self-test: 40 nodes, dense enough that
# every 2-hop list is over the default pair cap
PARITY_SBM = dict(block_sizes=(20, 20), p_in=0.5, p_out=0.05, feature_dim=16,
                  mean_scale=2.0, noise_scale=0.3)
PARITY_EPOCHS = 3
