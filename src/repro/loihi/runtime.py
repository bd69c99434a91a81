"""Timestep execution engine for a declared network.

Semantics (matching a digital neuromorphic chip's barrier-synchronized
update):

1. every connection delivers the spikes its source emitted on the
   *previous* step (one-step conduction delay);
2. every enabled compartment group integrates and fires, in declaration
   order — so an auxiliary gate compartment declared before its soma gates
   the same step's output;
3. when the host runs with learning on, plastic connections update their
   trace counters;
4. the learning engine runs only at host-triggered *learning epochs*
   (the phase boundaries of Operation Flow 1), never inside the loop.

Work nothing can observe is skipped: a disabled group is not stepped (its
spikes are zeroed once, so a group disabled mid-run still delivers its
last spikes one step later), deliveries from silent sources and into
disabled groups compute no current, and a run with learning off updates no
traces.  Synaptic events are still booked as spikes x fan-out for every
delivery, so the energy counters do not depend on these shortcuts.

The runtime also owns the counters (:class:`~repro.loihi.energy.RunStats`)
that the energy model turns into Table II / Fig. 3 rows.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..seeding import as_rng
from .compartment import CompartmentGroup
from .energy import RunStats
from .mapping import Mapping, shard_groups
from .microcode import LearningEngine, SumOfProducts
from .sdk import Network


def _replica_engine(network: Network, rng, stochastic_rounding: bool,
                    ) -> LearningEngine:
    """Build the learning engine, spawning per-replica rounding streams.

    For a replicated network, ``rng`` may be a sequence of generators (one
    per replica — the form the equivalence tests use to pin each replica's
    stream) or a single generator, from which per-replica child streams are
    derived deterministically.
    """
    replicas = getattr(network, "replicas", 1)
    if isinstance(rng, (list, tuple)):
        if len(rng) != replicas:
            raise ValueError(
                f"got {len(rng)} rng streams for {replicas} replicas")
        if replicas == 1:
            return LearningEngine(rng=rng[0],
                                  stochastic_rounding=stochastic_rounding)
        return LearningEngine(rngs=list(rng),
                              stochastic_rounding=stochastic_rounding)
    rng = as_rng(rng)
    if replicas == 1:
        return LearningEngine(rng=rng,
                              stochastic_rounding=stochastic_rounding)
    children = [np.random.default_rng(int(rng.integers(0, 2 ** 63)))
                for _ in range(replicas)]
    return LearningEngine(rngs=children,
                          stochastic_rounding=stochastic_rounding)


class Runtime:
    """Steps a network and orchestrates learning epochs.

    Works unchanged for replicated networks (``Network(replicas=R)``): all
    state carries a leading replica axis and one :meth:`step` advances every
    replica.  ``rng`` then accepts a sequence of ``R`` generators pinning
    each replica's stochastic-rounding stream.
    """

    def __init__(self, network: Network,
                 rng: Optional[np.random.Generator] = None,
                 stochastic_rounding: bool = True):
        self.network = network
        self.engine = _replica_engine(network, rng, stochastic_rounding)
        #: rule book: learning_rule name -> {epoch name -> [rules]}
        self.rulebook: Dict[str, Dict[str, List[SumOfProducts]]] = {}
        self.stats = RunStats()
        self.stats.plastic_synapses = network.n_plastic_synapses()
        #: A plain runtime steps the whole network as one shard.
        self.shards: List[_Shard] = [
            _Shard(network.groups, network.connections)]
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- learning-rule registry ---------------------------------------------

    def register_rule(self, name: str,
                      epochs: Dict[str, List[SumOfProducts]]) -> None:
        """Associate microcode rule lists with named learning epochs."""
        self.rulebook[name] = epochs

    # -- host controls ---------------------------------------------------------

    def set_bias(self, group_name: str, bias: np.ndarray) -> None:
        """Host->chip write programming per-compartment biases."""
        self.network.group(group_name).set_bias(bias)

    def enable(self, group_names: Iterable[str]) -> None:
        for name in group_names:
            self.network.group(name).enabled = True

    def disable(self, group_names: Iterable[str]) -> None:
        for name in group_names:
            self.network.group(name).enabled = False

    # -- execution ---------------------------------------------------------------

    def step(self, learn: bool = True) -> None:
        """One barrier-synchronized timestep (traces only if ``learn``)."""
        self._step_shards(learn)

    def _step_shards(self, learn: bool) -> None:
        """Deliver, integrate and trace every shard, barrier between."""
        self._each_shard(_Shard.deliver)
        n_spikes = sum(self._each_shard(_Shard.step_groups))
        if learn:
            self._each_shard(_Shard.update_traces)
        for shard in self.shards:
            shard.stats.steps += 1
        self.stats.steps += 1
        self.stats.spikes += n_spikes

    def _each_shard(self, fn):
        """Run ``fn(shard)`` for every shard; barrier on completion."""
        if self._pool is None:
            return [fn(shard) for shard in self.shards]
        futures = [self._pool.submit(fn, shard) for shard in self.shards]
        return [f.result() for f in futures]

    def run(self, steps: int, learn: bool = True) -> None:
        """Advance ``steps`` timesteps.

        ``learn=False`` is the host's learning switch for inference: the
        trace counters, which only a learning epoch reads, are not updated.
        It holds for this call only, so every run states its own mode.
        """
        for _ in range(steps):
            self.step(learn)
        self._collect_syn_events()

    def _collect_syn_events(self) -> None:
        self.stats.syn_events += sum(
            self._each_shard(_Shard.collect_syn_events))

    def learning_epoch(self, epoch: str) -> None:
        """Run the learning engine for one named epoch on all plastic
        connections that registered rules for it."""
        for conn in self.network.connections:
            if not conn.plastic or not conn.learning_rule:
                continue
            rules = self.rulebook.get(conn.learning_rule, {}).get(epoch)
            if rules:
                self.engine.apply_all(rules, conn)
        self.stats.learning_epochs += 1

    # -- state management ----------------------------------------------------------

    def reset_traces(self) -> None:
        for conn in self.network.connections:
            conn.reset_traces()

    def reset_tags(self) -> None:
        for conn in self.network.connections:
            conn.reset_tag()

    def reset_membranes(self, group_names: Iterable[str]) -> None:
        """Phase-boundary reset of selected groups' integrator state."""
        for name in group_names:
            self.network.group(name).reset_membrane()

    def reset_state(self, counts: bool = True) -> None:
        """Reset network state between samples (Operation Flow 1)."""
        for group in self.network.groups:
            group.reset_state()
            if counts:
                group.reset_counts()

    def spike_counts(self, group_name: str) -> np.ndarray:
        return self.network.group(group_name).spike_count.copy()

    def mark_sample(self, n: int = 1) -> None:
        self.stats.samples += n


class _Shard:
    """One concurrently-steppable partition of the network.

    ``groups`` preserve network declaration order (gate/merge reads between
    groups of one shard rely on it); ``conns_in`` are the connections whose
    destination lives in this shard — current delivery and trace updates
    happen where the synapses physically are.  The shard owns one int64
    current buffer per group, zeroed and refilled every step.
    """

    def __init__(self, groups: Iterable[CompartmentGroup],
                 conns_in: Iterable) -> None:
        self.groups = list(groups)
        self.conns_in = list(conns_in)
        currents = {g.name: np.zeros(g.state_shape, dtype=np.int64)
                    for g in self.groups}
        self._inputs = [(g, currents[g.name]) for g in self.groups]
        self._deliveries = [(c, currents[c.dst.name]) for c in self.conns_in]
        #: The buffers deliveries write, so the only ones to zero.
        self._fed = [currents[n]
                     for n in {c.dst.name for c in self.conns_in}]
        self.stats = RunStats()
        self._syn_events_seen = 0

    def deliver(self) -> None:
        """Currents from the spikes each source emitted on the last step.

        A disabled destination discards its current, so its deliveries
        only book their synaptic events.
        """
        for buf in self._fed:
            buf.fill(0)
        for conn, buf in self._deliveries:
            spikes = conn.src.spikes
            if not spikes.any():
                continue
            if conn.dst.enabled:
                conn.propagate(spikes, out=buf)
            else:
                conn.count_events(spikes)

    def step_groups(self) -> int:
        n_spikes = 0
        for group, current in self._inputs:
            if group.enabled:
                n_spikes += int(group.step(current).sum())
            else:
                group.silence()
        self.stats.spikes += n_spikes
        return n_spikes

    def update_traces(self) -> None:
        for conn in self.conns_in:
            if conn.plastic:
                conn.update_traces(conn.src.spikes, conn.dst.spikes)

    def collect_syn_events(self) -> int:
        """Fold new synaptic events into the shard stats; return them."""
        total = sum(c.syn_events for c in self.conns_in)
        new = total - self._syn_events_seen
        self.stats.syn_events += new
        self._syn_events_seen = total
        return new


class ShardedRuntime(Runtime):
    """A :class:`Runtime` that executes the chip's cores as shards.

    The compiled :class:`~repro.loihi.mapping.Mapping` says which groups
    share physical cores; :func:`~repro.loihi.mapping.shard_groups`
    partitions the groups into core-disjoint shards (gate/merge-coupled
    groups — always colocated on hardware — are kept together).  Each
    barrier-synchronized timestep then runs in three phases over a worker
    pool, mirroring how the chip's cores compute concurrently between
    barriers:

    1. **deliver** — every shard accumulates the currents of its inbound
       connections from the *previous* step's spikes (read-only, parallel);
    2. **integrate** — every shard steps its groups in declaration order
       (writes stay inside the shard, parallel);
    3. **trace** — when learning is on, every shard updates its inbound
       plastic traces from the freshly written spikes (parallel).

    Learning epochs stay sequential over connections: the engine's
    stochastic-rounding streams are consumed in connection order, and that
    order is part of the bit-identical contract with the plain runtime.

    Per-shard counters live in ``shard.stats`` and are merged into the
    global :class:`RunStats` (see :meth:`merged_shard_stats`).
    """

    def __init__(self, network: Network, mapping: Mapping,
                 rng: Optional[np.random.Generator] = None,
                 stochastic_rounding: bool = True,
                 max_workers: Optional[int] = None):
        super().__init__(network, rng=rng,
                         stochastic_rounding=stochastic_rounding)
        edges = []
        for g in network.groups:
            if g.gate_group is not None:
                edges.append((g.name, g.gate_group.name))
            if g.merge_group is not None:
                edges.append((g.name, g.merge_group.name))
        order = {g.name: i for i, g in enumerate(network.groups)}
        mapped = set(mapping.placements)
        name_shards = shard_groups(mapping, extra_edges=edges)
        unmapped = [g.name for g in network.groups if g.name not in mapped]
        if unmapped:  # defensive: groups added after compile get own shard
            name_shards.append(unmapped)
        shard_of = {n: i for i, names in enumerate(name_shards)
                    for n in names}
        self.shards = [
            _Shard(sorted((network.group(n) for n in names),
                          key=lambda g: order[g.name]),
                   [c for c in network.connections
                    if shard_of[c.dst.name] == i])
            for i, names in enumerate(name_shards)]
        if max_workers is None:
            from ..exec import default_workers

            max_workers = default_workers(cap=min(len(self.shards), 4))
        self.max_workers = max(1, int(max_workers))
        self._pool = ThreadPoolExecutor(max_workers=self.max_workers) \
            if self.max_workers > 1 and len(self.shards) > 1 else None

    # -- worker pool -------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self.max_workers = 1

    def __enter__(self) -> "ShardedRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    def step(self, learn: bool = True) -> None:
        """One barrier-synchronized timestep, shards stepped in parallel.

        The same stepping as :meth:`Runtime.step`, defined here so traces
        and profilers attribute sharded steps apart from plain ones.
        """
        self._step_shards(learn)

    def merged_shard_stats(self) -> RunStats:
        """Per-shard counters folded into one :class:`RunStats`.

        Spikes and synaptic events are genuinely partitioned across shards,
        so their merge must reproduce the global counters; steps are a
        whole-chip barrier count and samples/epochs are host-side events,
        so those are taken from the global stats.
        """
        merged = RunStats()
        for shard in self.shards:
            merged.spikes += shard.stats.spikes
            merged.syn_events += shard.stats.syn_events
        merged.steps = self.stats.steps
        merged.samples = self.stats.samples
        merged.learning_epochs = self.stats.learning_epochs
        merged.plastic_synapses = self.stats.plastic_synapses
        return merged
