"""Remap implementation: moving data between two layouts (§3.3).

A remap has three phases (Figure 3.17): *pack* elements bound for the same
destination into one long message, *transfer* the long messages, and
*unpack* each received message into its slots on the destination processor.
:mod:`repro.remap.masks` derives the pack/unpack masks of §3.3.1 from the
two layouts' bit patterns and runs them as strided views (the SPMD
runtime's remap); :mod:`repro.remap.plan` spells them out as the
simulator's gather/scatter index vectors; :mod:`repro.remap.cache`
memoizes those plans by layout value; :mod:`repro.remap.exchange` executes
a remap on the simulated machine in long- or short-message mode, with or
without pack/unpack fused into the local computation (§4.3);
:mod:`repro.remap.groups` derives the Lemma-4 communication groups of
``2**N_BitsChanged`` ranks that each remap's data stays within.
"""

from repro.remap.masks import (
    RemapMasks,
    changed_local_bits,
    pack_mask,
    remap_masks,
    unpack_mask,
)
from repro.remap.groups import (
    destination_procs,
    remap_group,
    remap_group_partition,
)
from repro.remap.plan import RemapPlan, build_remap_plan
from repro.remap.cache import PLAN_CACHE, RemapPlanCache, cached_remap_plan
from repro.remap.exchange import perform_remap

__all__ = [
    "changed_local_bits",
    "pack_mask",
    "unpack_mask",
    "RemapMasks",
    "remap_masks",
    "destination_procs",
    "remap_group",
    "remap_group_partition",
    "RemapPlan",
    "build_remap_plan",
    "RemapPlanCache",
    "cached_remap_plan",
    "PLAN_CACHE",
    "perform_remap",
]
