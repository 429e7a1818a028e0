"""Parameterised scenario workloads: sweepable synthetic behaviour knobs.

Where the Table 3 kernels each imitate one SPEC benchmark, a *scenario*
is a synthetic workload whose behaviour is set by three orthogonal knobs,
so campaigns (:mod:`repro.engine.campaign`) can sweep **workload**
dimensions exactly like core-config dimensions:

* ``chase`` — pointer-chase depth: how many dependent loads each loop
  iteration chains through a shuffled ring of nodes.  Deeper chains mean
  longer dependence-limited critical paths, i.e. more headroom for value
  prediction to collapse (the mcf axis).
* ``entropy`` — branch-direction entropy in percent of the maximum: 0
  gives a fixed periodic pattern TAGE learns perfectly, 100 flips a fair
  coin per branch (flip probability ``entropy/200``, so the knob is
  monotone end to end).  Dials misprediction rate, and with it the
  fraction of cycles value prediction cannot help (the sjeng axis).
* ``locality`` — value locality in percent: the probability that an
  iteration revisits known ground — the pointer chase restarts on its hot
  path and the produced value repeats the previous iteration's — instead
  of wandering/switching to fresh bits.  Dials predictor coverage (and
  with it how much of the chase chain value prediction can collapse) from
  almost-stable down to white noise (the crafty/milc axis).

A scenario is addressed by name, ``scenario-c<chase>-e<entropy>-l<locality>``
(e.g. ``scenario-c4-e25-l90``), everywhere a catalog workload name is
accepted: ``SimJob.make(workload=...)``, ``repro run``, campaign workload
axes.  :func:`scenario_axis` builds the name grid for campaign specs.
Traces are deterministic in (name, seed): the default seed is derived
from the knob values, so the same scenario name always denotes the same
µop stream, across processes and executors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.bits import MASK64

if TYPE_CHECKING:
    from repro.workloads.builder import TraceBuilder

#: Canonical name pattern: scenario-c<chase>-e<entropy%>-l<locality%>.
_NAME_RE = re.compile(r"^scenario-c(\d+)-e(\d{1,3})-l(\d{1,3})$")

#: Bounds on the knobs (chase depth caps to keep traces register-sane).
MAX_CHASE = 64


@dataclass(frozen=True)
class ScenarioParams:
    """The three behaviour knobs of one scenario workload."""

    chase: int = 4       # pointer-chase depth (dependent loads/iteration)
    entropy: int = 25    # branch-direction entropy, percent 0..100
    locality: int = 90   # value-reuse probability, percent 0..100

    def __post_init__(self):
        if not 0 <= self.chase <= MAX_CHASE:
            raise ValueError(f"chase must be 0..{MAX_CHASE}, got {self.chase}")
        if not 0 <= self.entropy <= 100:
            raise ValueError(f"entropy must be 0..100, got {self.entropy}")
        if not 0 <= self.locality <= 100:
            raise ValueError(f"locality must be 0..100, got {self.locality}")

    @property
    def name(self) -> str:
        return f"scenario-c{self.chase}-e{self.entropy}-l{self.locality}"

    def default_seed(self) -> int:
        """Deterministic per-scenario seed (no process-dependent hashing)."""
        return 0x5EED + self.chase * 10_007 + self.entropy * 101 + self.locality


def parse_scenario_name(name: str) -> ScenarioParams | None:
    """Parse a ``scenario-c*-e*-l*`` name; ``None`` for anything else."""
    match = _NAME_RE.match(name)
    if match is None:
        return None
    chase, entropy, locality = (int(g) for g in match.groups())
    try:
        return ScenarioParams(chase=chase, entropy=entropy, locality=locality)
    except ValueError:
        return None


def is_scenario_name(name: str) -> bool:
    return parse_scenario_name(name) is not None


def scenario_axis(
    chase=(1, 4, 8),
    entropy=(5, 50),
    locality=(90, 40),
) -> list[str]:
    """The cross-product of knob values as workload names — ready to drop
    into a campaign spec's ``workload`` axis."""
    return [
        ScenarioParams(c, e, l).name
        for c in chase
        for e in entropy
        for l in locality
    ]


def scenario_kernel(params: ScenarioParams, b: TraceBuilder, n_target: int) -> None:
    """Emit the scenario loop: chase → branch → value-producing work.

    Every iteration (1) walks ``chase`` dependent loads through a shuffled
    pointer ring — restarting from the ring's *hot path* with ``locality``
    probability, wandering onward otherwise, so high locality makes the
    chain's loaded successors almost-stable values (the paper's Fig. 4a
    class: predictable enough for big gains, occasionally wrong, so plain
    3-bit counters suffer and FPC is needed) while low locality makes them
    noise; (2) executes two conditional branches whose directions mix a
    periodic pattern with ``entropy``-probability noise; and (3) produces
    a loaded value that sticks with ``locality`` probability, folded into
    a running accumulator and spilled to memory.  All values are genuinely
    computed, so dependences, addresses and value streams are real — and
    because the chase chain is the critical path, predicting its loads is
    what value prediction's speedup actually collapses.
    """
    rng = b.rng
    n_nodes = 256
    # Shuffled successor ring: node i stores the index of its successor.
    ring = list(range(1, n_nodes)) + [0]
    rng.shuffle(ring)
    ring_base = b.alloc(n_nodes * 64, align=64)
    acc_slot = b.alloc(8)
    spill_slot = b.alloc(8)

    node = 0
    acc = 0
    value = rng.getrandbits(64)
    i = 0
    b.imm("scn_init", "node", node)
    while b.n < n_target:
        # (1) Pointer chase: each load's address depends on the previous
        # loaded value — a serialised chain of params.chase loads.  With
        # `locality` probability the walk restarts on the hot path (node
        # 0), so each static chase load usually re-sees one successor.
        if rng.random() < params.locality / 100.0:
            node = 0
            b.imm("scn_hot", "node", node)
        for depth in range(params.chase):
            succ = ring[node]
            b.load(f"scn_chase{depth}", "node", ring_base + node * 64, succ,
                   addr_srcs=["node"])
            node = succ
        # (2) Branches: periodic pattern XOR noise.  Flip probability is
        # entropy/200 so the knob is monotone over its whole range and
        # 100 really is a fair coin (entropy/100 would make 100 a
        # deterministic inversion — zero effective randomness).
        pattern = (i >> 1) & 1
        flip = rng.random() < params.entropy / 200.0
        taken = bool(pattern ^ flip)
        b.branch("scn_br0", taken=taken, target_label="scn_init", srcs=["node"])
        b.branch("scn_br1", taken=not taken, target_label="scn_init",
                 srcs=["node"])
        # (3) Value stream: sticky (repeat last) or switch, then fold + spill.
        if rng.random() >= params.locality / 100.0:
            value = rng.getrandbits(64)
        b.load("scn_val", "val", acc_slot, value)
        acc = (acc + value) & MASK64
        b.alu("scn_fold", "acc", ["acc", "val"] if i else ["val"], acc)
        b.store("scn_spill", spill_slot, "acc")
        i += 1
