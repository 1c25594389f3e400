"""Seeded instances and operations of the three benchmark workloads.

Each workload maps the benchmark seed to its sub-seeds with `sub_seed`,
so seed 0 gives exactly the instances the README names (criterion-8
monitoring instance, the 2-product marketing instance, the certify
batch).  Set-up goes through the same file loaders the CLI uses, and the
program only ever sees the generated instances.

An operation is one solver call (monitor-er1000, marketing-rr) or one
certified instance (certify-small).  Operations are grouped into the
units the runner repeats: each solver on its own, the certify batch as a
whole so its latency distribution always covers every instance size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from twinopt import (
    CutMonitorObjective,
    GroundSet,
    IntersectionSystem,
    MarketingObjective,
    PartitionMatroid,
    SeedMatroid,
    WeightedGraph,
    assign_groups,
    assign_weights_uniform,
    certify_run,
    exact_max,
    gen_ba,
    gen_er,
    gen_rr_sets,
    rank,
    sample_greedy,
    set_indegree_probabilities,
    twin_greedy,
    twin_greedy_fast,
)
from twinopt.constraints import load_partition, save_partition
from twinopt.objectives import (
    load_costs,
    load_edge_list,
    load_rr_sets,
    save_costs,
    save_edge_list,
    save_rr_sets,
)

from common import CERTIFY, MARKETING, MONITOR

EPSILON = 0.1
SOLVER_CALLS = ("twin", "twinfast", "samplegreedy", "exact")

SIZES = {
    MONITOR: {
        "full": {"n": 1000, "p_edge": 0.1, "parts": 5, "cap": 50, "q": 0.5},
        "tiny": {"n": 200, "p_edge": 0.1, "parts": 5, "cap": 10, "q": 0.5},
    },
    MARKETING: {
        "full": {"n": 1000, "m0": 10, "m": 5, "products": 2, "rr_sets": 1500, "k": 20},
        "tiny": {"n": 150, "m0": 10, "m": 5, "products": 2, "rr_sets": 300, "k": 5},
    },
    CERTIFY: {
        "full": {"instances": 240, "n_min": 8, "n_max": 15, "p_edge": 0.5, "parts": 2,
                 "cap": 3},
        "tiny": {"instances": 8, "n_min": 8, "n_max": 11, "p_edge": 0.5, "parts": 2,
                 "cap": 3},
    },
}

# set-ups per run; setup_s is their median
SETUPS = {MONITOR: 9, MARKETING: 9, CERTIFY: 15}


def sub_seed(base: int, seed: int) -> int:
    return base + 1000 * seed


@dataclass
class Instance:
    f: object  # the ValueOracle the solvers query
    c: object  # the IndependenceOracle they check against
    ground: GroundSet
    graph: WeightedGraph
    p: int = 1
    partitions: tuple = ()  # certify-small: the part lists behind c
    cap: int = 0

    def fresh(self):
        """A new oracle over the same data, for checks that must not share state."""
        if isinstance(self.f, MarketingObjective):
            return MarketingObjective(self.f.collections, self.f.costs, self.f.budget)
        return CutMonitorObjective(self.graph)


# set-up phase that writes the instance files; bound by the file system, so unscaled
SAVE = "io.save"


class Phases(dict):
    """Seconds per timed set-up phase, plus the set-up's total and, on
    marketing-rr, the RR-set counts behind the sampling rate."""

    def time(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self[name] = self.get(name, 0.0) + perf_counter() - t0
        return out


def params(workload: str, seed: int, scale: str) -> dict:
    """Instance parameters and sub-seeds, as the run record states them."""
    out = dict(SIZES[workload][scale])
    if workload == MONITOR:
        out.update(graph_seed=sub_seed(42, seed), weight_seed=sub_seed(43, seed),
                   part_seed=sub_seed(44, seed), sample_seed=sub_seed(7, seed),
                   epsilon=EPSILON)
    elif workload == MARKETING:
        out.update(graph_seed=sub_seed(21, seed),
                   rr_seeds=[sub_seed(100 + i, seed) for i in range(out["products"])],
                   cost_seed=sub_seed(5, seed), cost_range=[0.5, 1.5], epsilon=EPSILON)
    else:
        out.update(instance_seed=sub_seed(50_000, seed), epsilon=EPSILON)
    return out


# ---------------------------------------------------------------------------
# set-up


def setup_monitor(par, workdir, ph: Phases) -> list[Instance]:
    n = par["n"]
    graph = ph.time("generators.graph", lambda: assign_weights_uniform(
        gen_er(n, par["p_edge"], par["graph_seed"]), 0.0, 1.0, par["weight_seed"]))
    parts = ph.time("generators.graph", assign_groups, n, par["parts"], par["part_seed"])
    gpath, ppath = os.path.join(workdir, "graph.txt"), os.path.join(workdir, "parts.txt")
    ph.time(SAVE, save_edge_list, gpath, graph)
    ph.time(SAVE, save_partition, ppath, parts)
    graph = ph.time("objectives.load_graph", load_edge_list, gpath, directed=False)
    parts = load_partition(ppath)
    f = ph.time("objectives.construct", CutMonitorObjective, graph)
    c = ph.time("objectives.construct", PartitionMatroid, parts, par["cap"])
    return [Instance(f, c, GroundSet(graph.n_nodes), graph)]


def setup_marketing(par, workdir, ph: Phases) -> list[Instance]:
    n, m = par["n"], par["products"]

    def bidirected():
        base = gen_ba(n, par["m0"], par["m"], par["graph_seed"])
        edges = base.edges + [(v, u, w) for u, v, w in base.edges]
        return WeightedGraph(n, edges, directed=True)

    graph = ph.time("generators.graph", bidirected)
    costs = ph.time("generators.graph", lambda: [
        float(x) for x in np.random.default_rng(par["cost_seed"]).uniform(0.5, 1.5, n)])
    gpath, cpath = os.path.join(workdir, "graph.txt"), os.path.join(workdir, "costs.txt")
    rpaths = [os.path.join(workdir, f"rr{i}.txt") for i in range(m)]
    ph.time(SAVE, save_edge_list, gpath, graph)
    graph = ph.time("objectives.load_graph", load_edge_list, gpath)
    graph = ph.time("generators.graph", set_indegree_probabilities, graph)
    collections = [ph.time("generators.rr", gen_rr_sets, graph, par["rr_sets"], s)
                   for s in par["rr_seeds"]]
    ph["generators.rr_count"] = sum(len(col) for col in collections)
    ph["generators.rr_nodes"] = sum(s.bit_count() for col in collections for s in col.sets)
    for path, col in zip(rpaths, collections):
        ph.time(SAVE, save_rr_sets, path, col)
    ph.time(SAVE, save_costs, cpath, costs)
    collections = [ph.time("objectives.load_rrsets", load_rr_sets, p) for p in rpaths]
    costs = load_costs(cpath)
    f = ph.time("objectives.construct", MarketingObjective, collections, costs)
    c = ph.time("objectives.construct", SeedMatroid, n, m, par["k"])
    return [Instance(f, c, GroundSet(f.n), graph)]


def setup_certify(par, workdir, ph: Phases) -> list[Instance]:
    span = par["n_max"] - par["n_min"] + 1
    out = []
    for idx in range(par["instances"]):
        n = par["n_min"] + idx % span
        # each size appears with one partition matroid and with an intersection of two
        p = 1 + (idx // span) % 2
        seed = par["instance_seed"] + 4 * idx
        graph = ph.time("generators.graph", lambda: assign_weights_uniform(
            gen_er(n, par["p_edge"], seed), 0.0, 1.0, seed + 1))
        parts = [ph.time("generators.graph", assign_groups, n, par["parts"], seed + 2 + i)
                 for i in range(p)]
        gpath = os.path.join(workdir, f"g{idx}.txt")
        ppaths = [os.path.join(workdir, f"p{idx}_{i}.txt") for i in range(p)]
        ph.time(SAVE, save_edge_list, gpath, graph)
        for path, part in zip(ppaths, parts):
            ph.time(SAVE, save_partition, path, part)
        graph = ph.time("objectives.load_graph", load_edge_list, gpath, directed=False)
        parts = [load_partition(path) for path in ppaths]
        f = ph.time("objectives.construct", CutMonitorObjective, graph)

        def constraint():
            mats = [PartitionMatroid(part, par["cap"]) for part in parts]
            return mats[0] if p == 1 else IntersectionSystem(mats)

        c = ph.time("objectives.construct", constraint)
        out.append(Instance(f, c, GroundSet(n), graph, p=p, partitions=tuple(parts),
                            cap=par["cap"]))
    return out


SETUP = {MONITOR: setup_monitor, MARKETING: setup_marketing, CERTIFY: setup_certify}


def setup(workload, par, workdir) -> tuple[list[Instance], Phases]:
    ph = Phases()
    t0 = perf_counter()
    instances = SETUP[workload](par, workdir, ph)
    ph["total"] = perf_counter() - t0
    return instances, ph


# ---------------------------------------------------------------------------
# operations


def groups(workload, par, instances) -> list[tuple[str, list]]:
    """[(group label, [(op key, instance, fn(recorder) -> {call name: result})])]."""
    if workload == CERTIFY:
        return [("batch", [(f"batch/{i}", inst, _certified(inst))
                           for i, inst in enumerate(instances)])]
    inst = instances[0]
    calls = {
        "twin": lambda rec: {"twin": rec.call("twin", inst, twin_greedy,
                                              inst.f, inst.c, inst.ground)},
        "twinfast": lambda rec: {"twinfast": rec.call("twinfast", inst, twin_greedy_fast,
                                                      inst.f, inst.c, inst.ground, EPSILON)},
        "samplegreedy": lambda rec: {"samplegreedy": rec.call(
            "samplegreedy", inst, sample_greedy, inst.f, inst.c, inst.ground,
            par["q"], par["sample_seed"])},
    }
    names = ["twin", "twinfast"] + (["samplegreedy"] if workload == MONITOR else [])
    return [(name, [(f"{name}/0", inst, calls[name])]) for name in names]


def rank_seconds(instances) -> float:
    """Time of one rank() call per instance, summed."""
    t0 = perf_counter()
    for inst in instances:
        rank(inst.c, inst.ground)
    return perf_counter() - t0


def _certified(inst: Instance):
    def op(rec):
        opt = rec.call("exact", inst, exact_max, inst.f, inst.c, inst.ground)
        twin = rec.call("twin", inst, twin_greedy, inst.f, inst.c, inst.ground)
        fast = rec.call("twinfast", inst, twin_greedy_fast, inst.f, inst.c, inst.ground,
                        EPSILON)
        certs = [rec.call("certify", inst, certify_run, inst.f, inst.c, report,
                          opt.solution, opt.value, p=inst.p) for report in (twin, fast)]
        return {"exact": opt, "twin": twin, "twinfast": fast, "certify": certs}

    return op
