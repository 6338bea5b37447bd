"""Transference pipeline: regularity partition, majority-color reduced
graph, capacity-1 homomorphism lift, then the randomized blow-up embedder.

Each stage either produces data for the next or names itself as the point
of failure; a Some result is always an independently verified
monochromatic embedding.  The majority threshold, the sampled checker's
budget and the retry counts are constants of this route; a caller sets
only eps, xi, the class count k and the regularity mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import BLUE, RED, EdgeColoring, Graph
from .morphisms import (
    CapacityProfile,
    VerificationError,
    VertexMap,
    compose,
    find_capacity_homomorphism,
    verify_homomorphism,
)
from .regularity import (
    MODE_SAMPLED,
    RegularityParams,
    fixed_k_partition,
    split_by_density,
)
from .rga import RgaParams, rga_blowup_embed

# unused here; perfbench/layers.py traces both names on this module, and its
# smoke test fails on an absent binding
from .graphs import pair_density  # noqa: F401
from .regularity import regularity_check  # noqa: F401

STAGE_PARTITION = "partition"  # never reported; perfbench/workloads.py reads it
STAGE_REDUCED = "reduced_graph"
STAGE_LIFT = "capacity_homomorphism"
STAGE_EMBED = "blowup_embedding"

MAJORITY_DELTA = Fraction(1, 2)  # a regular pair at least this red is red
SAMPLE_BUDGET = 50  # samples per pair in sampled mode
PARTITION_RETRIES = 2
RGA_RETRIES = 10


@dataclass(frozen=True)
class PipelineParams:
    eps: Fraction
    xi: Fraction
    k: int
    mode: str = MODE_SAMPLED


@dataclass
class PipelineResult:
    color: str | None
    vmap: VertexMap | None
    failed_stage: str | None

    @property
    def ok(self) -> bool:
        return self.vmap is not None


def transference_pipeline(
    g: Graph,
    h: Graph,
    f: VertexMap,
    coloring: EdgeColoring,
    params: PipelineParams,
    seed: int = 0,
) -> PipelineResult:
    """Find a monochromatic embedding of g in a 2-colored host, guided by a
    homomorphism f from g to the small template h."""
    if not verify_homomorphism(g, h, f).valid:
        raise ValueError("f is not a homomorphism from g to h")
    host = coloring.host
    if host.n < params.k:
        raise ValueError("host smaller than the requested class count")
    rga = RgaParams(delta=MAJORITY_DELTA, xi=params.xi)  # validates xi before any work

    reg = RegularityParams(params.eps)
    red = coloring.red_graph
    partition, report = fixed_k_partition(
        red, params.k, reg, seed=seed, retries=PARTITION_RETRIES,
        mode=params.mode, budget=SAMPLE_BUDGET,
    )

    # reduced coloring from the partition's own verdicts: a regular pair
    # joins the red reduced graph when its red density is at least
    # MAJORITY_DELTA, else the blue one; irregular pairs join neither
    if not report.regular_pairs:
        return PipelineResult(None, None, STAGE_REDUCED)
    reduced_by_color = dict(
        zip((RED, BLUE), split_by_density(red, partition, report.regular_pairs, MAJORITY_DELTA))
    )

    lift_failed = True
    for color in (RED, BLUE):
        reduced = reduced_by_color[color]
        outcome = find_capacity_homomorphism(
            h, reduced, CapacityProfile.uniform_count_cap(reduced.n, 1)
        )
        if outcome.vmap is None:
            continue
        lift_failed = False
        composed = compose(f, outcome.vmap)
        mono = coloring.subgraph(color)
        try:
            vmap = rga_blowup_embed(
                mono, partition, reduced, g, composed, rga, seed=seed, retries=RGA_RETRIES
            )
        except ValueError:
            # slack or homomorphism precondition failed for this color
            continue
        if vmap is not None:
            if not (verify_homomorphism(g, mono, vmap).valid and vmap.is_injective()):
                raise VerificationError(f"{color} blow-up embedding failed verification")
            return PipelineResult(color, vmap, None)
    return PipelineResult(None, None, STAGE_LIFT if lift_failed else STAGE_EMBED)
