"""Identity of every program assembled from ``repro.sorting.stages``.

PR 19 rebuilt csort4, linear dsort, nowsort, dsort (both variants),
groupby and csort from one stage library.  Moving a stage function
moves its bytecode, and the stage-graph fingerprint pins each stage's
bytecode-derived ``parallel_safety`` — so every program that is *not*
already pinned at benchmark scale by ``tests/prov/test_committed_golden``
is pinned here at a small fixed shape: event timeline, metrics, output
bytes and one stage-graph fingerprint per program name (a stage that
reclassifies names its program here instead of surfacing as an opaque
DIVERGED).

``PINNED`` was recorded at 1b83289, the commit before that rebuild, with
the exceptions later fixes made, each marked where it is pinned:

* nowsort's ``trace`` and ``metrics`` digests.  Its merge stage used to
  take an output buffer before it knew a record was left (and stranded
  one whenever a partition was a multiple of the output block); it now
  takes the buffer later, like every other merge, which moves events but
  not one phase time — ``phases``, ``output`` and ``stage_graphs`` are
  the parent's.
* groupby pass 1's ``stage_graphs``.  ``route`` now records that its end
  markers went out, for the failure hook that sends them when ``route``
  dies — a shared write, so its ``parallel_safety`` goes ``read_shared``
  -> ``write_shared`` as dsort's ``send`` has always been.  Every digest
  of the fault-free run is the parent's.
* linear dsort's ``stage_graphs``.  Both ``exchange`` stages used to
  tell their source they were done through a shared dict, a write FGRace
  found unordered with the source's polls; they now set a one-shot
  :class:`~repro.sim.channel.Flag`, so ``exchange`` goes
  ``write_shared`` -> ``read_shared`` in both passes.  ``phases`` and
  every digest are the parent's.

Recorded under CPython 3.11; the verdicts are meant not to depend on the
interpreter version (the committed golden records assume the same).

Re-record (only on purpose, in a commit that says why):
``PYTHONPATH=src python tests/sorting/test_stage_library_identity.py``.
"""

import hashlib
import pprint

import numpy as np
import pytest

from repro.apps.groupby import GroupByConfig, KeyValueSchema, run_groupby
from repro.bench.harness import (
    benchmark_hardware,
    default_dsort_config,
    run_sort,
)
from repro.cluster import Cluster
from repro.faults import FaultPlan, run_chaos_csort, run_chaos_dsort
from repro.pdm.blockfile import RecordFile
from repro.pdm.records import RecordSchema
from repro.prov import ProvenanceCapture, metrics_digest, trace_digest
from repro.recover import RecoverPolicy, SpeculationPolicy
from repro.sim import Tracer, VirtualTimeKernel
from repro.sorting.dsort import run_nowsort
from repro.workloads.generator import generate_input

SCHEMA = RecordSchema.paper_16()
#: hex digits kept of every sha256 (64 bits: plenty to catch a change,
#: short enough to read a failure)
HEX = 16


def _short(digests: dict) -> dict:
    return {name: value[:HEX] for name, value in sorted(digests.items())}


def _sort_case(sorter, distribution="uniform", n_nodes=4, n_per_node=2048,
               tune=None):
    def observe():
        run = run_sort(sorter, distribution, SCHEMA, n_nodes=n_nodes,
                       n_per_node=n_per_node, seed=1, tune=tune,
                       provenance=True)
        record = run.provenance
        return {"phases": {k: repr(v) for k, v in run.phase_times.items()},
                "digests": _short(record.digests),
                "stage_graphs": _short(record.stage_graphs)}
    return observe


def _observed_cluster(n_nodes):
    kernel = VirtualTimeKernel(tracer=Tracer())
    kernel.enable_metrics()
    capture = ProvenanceCapture(kernel)
    return capture, Cluster(n_nodes=n_nodes, hardware=benchmark_hardware(),
                            kernel=kernel)


def _local_outputs_case(capture, cluster, reports, name, schema):
    """What a program with node-local (unstriped) output is pinned by."""
    output = hashlib.sha256()
    for node in cluster.nodes:
        rf = RecordFile(node.disk, name, schema)
        output.update(rf.peek(0, rf.n_records).tobytes())
    kernel = cluster.kernel
    return {"phases": {"pass1": repr(reports[0].pass1_time),
                       "pass2": repr(reports[0].pass2_time)},
            "digests": _short({
                "output": output.hexdigest(),
                "metrics": metrics_digest(kernel.metrics.snapshot()),
                "trace": trace_digest(kernel.tracer)}),
            "stage_graphs": _short(capture.stage_graphs)}


def _nowsort_case():
    """4 x 4096 uniform records at the harness's default geometry: a
    shape where a run's head block drains exactly as an output buffer
    fills, which is when the order of "take the next output buffer" and
    "refill" shows in the event stream."""
    capture, cluster = _observed_cluster(4)
    generate_input(cluster, SCHEMA, 4096, "uniform", seed=1)
    config = default_dsort_config(4 * 4096, 4)
    reports = cluster.run(run_nowsort, SCHEMA, config)
    return _local_outputs_case(capture, cluster, reports,
                               config.output_file, SCHEMA)


def _groupby_case():
    """2 nodes, 300 keys over 2 x 4000 records."""
    schema = KeyValueSchema()
    capture, cluster = _observed_cluster(2)
    rng = np.random.default_rng(5)
    for node in cluster.nodes:
        keys = rng.integers(0, 300, size=4000, dtype=np.uint64)
        values = rng.integers(0, 1000, size=4000, dtype=np.uint64)
        RecordFile(node.disk, "kv-input", schema).poke(
            0, schema.make(keys, values))
    reports = cluster.run(run_groupby, GroupByConfig(
        block_records=256, vertical_block_records=32,
        out_block_records=48))
    return _local_outputs_case(capture, cluster, reports, "kv-groups",
                               schema)


#: read-heavy merge geometry, as in tests/faults/test_recover_speculation
GEOM = dict(block_records=256, vertical_block_records=64,
            out_block_records=256)
#: simulated seconds of the fault-free recovering run at this shape
CLEAN_ELAPSED = 0.481


def _chaos_report(report):
    kinds: dict = {}
    for decision in report.recovery_decisions:
        kinds[decision["kind"]] = kinds.get(decision["kind"], 0) + 1
    return {"elapsed": repr(report.elapsed),
            "pass_restarts": report.pass_restarts,
            "decisions": dict(sorted(kinds.items())),
            "digests": _short({"output": report.output_digest,
                               "metrics": report.metrics_digest,
                               "trace": report.trace_digest}),
            "stage_graphs": _short(report.provenance.stage_graphs)}


def _chaos_speculate_case():
    """Every recovery feature at once: rank 1 straggles from mid-run (a
    backup merge races it), and a burst of permanent disk faults on
    rank 0 forces a pass-1 restart that resumes from the journals."""
    plan = (FaultPlan(seed=42)
            .with_straggler(rank=1, slowdown=3.0, start=0.5 * CLEAN_ELAPSED)
            .with_disk_faults(rate=1.0, rank=0, permanent=True,
                              start=0.3 * CLEAN_ELAPSED,
                              end=0.3 * CLEAN_ELAPSED + 0.01))
    return _chaos_report(run_chaos_dsort(
        seed=42, plan=plan, recover=RecoverPolicy(
            checkpoint=True, backup_runs=True, reassign=True,
            speculation=SpeculationPolicy()), **GEOM))


def _chaos_resume_case():
    """A pass-2 restart: the retried merge chain resumes mid-run from
    the merge log (per-run start offsets, ``start_piece > 0``)."""
    plan = FaultPlan(seed=42).with_disk_faults(
        rate=1.0, rank=0, permanent=True, start=0.75 * CLEAN_ELAPSED,
        end=0.75 * CLEAN_ELAPSED + 0.01)
    return _chaos_report(run_chaos_dsort(
        seed=42, plan=plan, recover=RecoverPolicy(
            checkpoint=True, backup_runs=True, reassign=True), **GEOM))


def _chaos_adopt_case():
    """A node crash mid-pass-2: the buddy merges the dead rank's range
    from its backup runs (an ``adopted`` chain)."""
    plan = FaultPlan(seed=42).with_node_crash(rank=1,
                                              at=0.75 * CLEAN_ELAPSED)
    return _chaos_report(run_chaos_dsort(
        seed=42, plan=plan, recover=RecoverPolicy(
            checkpoint=True, backup_runs=True, reassign=True), **GEOM))


def _chaos_csort_case():
    return _chaos_report(run_chaos_csort(seed=77, records_per_node=432,
                                         out_block_records=32))


CASES = {
    "csort4": _sort_case("csort4"),
    "dsort-linear": _sort_case("dsort-linear", n_nodes=3,
                               n_per_node=1728),
    "nowsort": _nowsort_case,
    "dsort-sort-replicas-2": _sort_case("dsort",
                                        tune={"sort_replicas": 2}),
    "groupby": _groupby_case,
    "chaos-dsort-speculate": _chaos_speculate_case,
    "chaos-dsort-resume": _chaos_resume_case,
    "chaos-dsort-adopt": _chaos_adopt_case,
    "chaos-csort": _chaos_csort_case,
}

PINNED = {'chaos-csort': {'elapsed': '0.19751211589729262',
                 'pass_restarts': 0,
                 'decisions': {},
                 'digests': {'metrics': '468946a79739f508',
                             'output': '59166ed7506a888f',
                             'trace': '6f2455d0ee6bf869'},
                 'stage_graphs': {'csort-p1@0': '08eced00e9c645a8',
                                  'csort-p1@1': '696d097786a36264',
                                  'csort-p1@2': 'e39173eddf2910b3',
                                  'csort-p2@0': '169be6a081479e0e',
                                  'csort-p2@1': 'e4863da86231fd44',
                                  'csort-p2@2': 'dca7b91b06bdf7a0',
                                  'csort-p3@0': '5c8168686ecffa38',
                                  'csort-p3@1': 'a6e1f162f12a50c0',
                                  'csort-p3@2': '682f8de7cda71673'}},
 'chaos-dsort-adopt': {'elapsed': '0.7490002560000004',
                       'pass_restarts': 1,
                       'decisions': {'node_dead': 2, 'reassign': 1},
                       'digests': {'metrics': '8e680586eb1b6e36',
                                   'output': '2a4f19cb895d8f17',
                                   'trace': '1fb83723d6135bbc'},
                       'stage_graphs': {'dsort-p1@0': 'eef1a032ebf2bf76',
                                        'dsort-p1@1': '87c19daf7178d6c7',
                                        'dsort-p1@2': 'acd2eb08e2ff5102',
                                        'dsort-p2@0.e0': 'b9cbfa888fbb66f0',
                                        'dsort-p2@0.e1.r1': '5e1e5109d84f6996',
                                        'dsort-p2@1.e0': 'ca13c63bc8c30017',
                                        'dsort-p2@2.e0': '64bec763375707bf',
                                        'dsort-p2@2.e1.r1': 'ef2f056101cf789d'}},
 'chaos-dsort-resume': {'elapsed': '0.6280000000000004',
                        'pass_restarts': 1,
                        'decisions': {'resume': 3},
                        'digests': {'metrics': 'd2b0fb61549a8b84',
                                    'output': '2a4f19cb895d8f17',
                                    'trace': '0978d555ad9e8a97'},
                        'stage_graphs': {'dsort-p1@0': 'eef1a032ebf2bf76',
                                         'dsort-p1@1': '87c19daf7178d6c7',
                                         'dsort-p1@2': 'acd2eb08e2ff5102',
                                         'dsort-p2@0.e0': 'b9cbfa888fbb66f0',
                                         'dsort-p2@0.e0.r1': '6b2e27cd22f61bdf',
                                         'dsort-p2@1.e0': 'ca13c63bc8c30017',
                                         'dsort-p2@1.e0.r1': '475cd692fe1f96a1',
                                         'dsort-p2@2.e0': '64bec763375707bf',
                                         'dsort-p2@2.e0.r1': '1cce715cdd9e86d5'}},
 'chaos-dsort-speculate': {'elapsed': '0.6960000000000005',
                           'pass_restarts': 1,
                           'decisions': {'resume': 2,
                                         'speculate': 1,
                                         'winner': 3},
                           'digests': {'metrics': '05f1d2af25890846',
                                       'output': '2a4f19cb895d8f17',
                                       'trace': '097f719538b8cba0'},
                           'stage_graphs': {'dsort-p1@0': 'eef1a032ebf2bf76',
                                            'dsort-p1@0.r1': '2eafb26fbecbc1d1',
                                            'dsort-p1@1': '87c19daf7178d6c7',
                                            'dsort-p1@1.r1': 'd6d71235e19a7046',
                                            'dsort-p1@2': 'acd2eb08e2ff5102',
                                            'dsort-p1@2.r1': '52e7b6fcbcb23e9f',
                                            'dsort-p2@0.e0': '44cef7b00d7bb71d',
                                            'dsort-p2@1.e0': '2092b9a323a6095f',
                                            'dsort-p2@2.e0': '872fe4c0b1c655ad'}},
 'csort4': {'phases': {'pass1': '0.0017175791666666665',
                       'pass2': '0.0027662961666666667',
                       'pass3': '0.0028753550833333407',
                       'pass4': '0.0028014708333333376'},
            'digests': {'metrics': '2971c006127b660f',
                        'output': '13531b937f37c81a',
                        'trace': '0b14e909c0652336'},
            'stage_graphs': {'csort4-p1@0': 'ab11b9e5df6939b3',
                             'csort4-p1@1': '475415e2d2e85bf2',
                             'csort4-p1@2': '6835aee38c40f9cc',
                             'csort4-p1@3': 'fe1679b2b48b5909',
                             'csort4-p2@0': 'ef6545e9254583de',
                             'csort4-p2@1': 'c71dddbd24c4f133',
                             'csort4-p2@2': '0dbc421ca0ad322a',
                             'csort4-p2@3': '66c6133631cd7b00',
                             'csort4-p3@0': '70add0a198114589',
                             'csort4-p3@1': '83f55f92004764b4',
                             'csort4-p3@2': 'cfc3668bb246ee62',
                             'csort4-p3@3': '1679b1d75a8d891d',
                             'csort4-p4@0': 'ba88ceb0943867fe',
                             'csort4-p4@1': 'd5fad98c62bcc4d1',
                             'csort4-p4@2': 'f90b91eb6c163067',
                             'csort4-p4@3': '497d72da6d8da51f'}},
 'dsort-linear': {'phases': {'sampling': '0.0013446529999999995',
                             'pass1': '0.0022929625000000006',
                             'pass2': '0.0033701035000000016'},
                  'digests': {'metrics': '384c77c7ee7666cf',
                              'output': '0e0810d0bb776e83',
                              'trace': 'a7e0bb38c16de7e3'},
                  # the one-shot exchange flags (module docstring)
                  'stage_graphs': {'dsortL-p1@0': 'fe95ae30b437e4df',
                                   'dsortL-p1@1': '6fa459198752a926',
                                   'dsortL-p1@2': 'a643e869349c7aaf',
                                   'dsortL-p2@0': '86df70582747335a',
                                   'dsortL-p2@1': 'f7870e52b08f7b4e',
                                   'dsortL-p2@2': 'e1d30359b643d1f6'}},
 'dsort-sort-replicas-2': {'phases': {'sampling': '0.0013927956666666666',
                                      'pass1': '0.0024548375000000015',
                                      'pass2': '0.0038594213333333436'},
                           'digests': {'metrics': '3b25ea7eb0f4b3bc',
                                       'output': '13531b937f37c81a',
                                       'trace': '510345db3a9b1ed3'},
                           'stage_graphs': {'dsort-p1@0': 'b6bfb66b4399f6c2',
                                            'dsort-p1@1': 'e766d5dace1a477d',
                                            'dsort-p1@2': '15b133de7ddee2b8',
                                            'dsort-p1@3': '243c95c4a2546956',
                                            'dsort-p2@0': 'c57d0cd616f334ca',
                                            'dsort-p2@1': '83833cfa1f0802dc',
                                            'dsort-p2@2': '428a526b5fbf2317',
                                            'dsort-p2@3': 'e12c16be2b4c969d'}},
 'groupby': {'phases': {'pass1': '0.004103466666666666',
                        'pass2': '0.00620531566666667'},
             'digests': {'metrics': '2201ee918ec6ef56',
                         'output': 'dfaad7d016a5a899',
                         'trace': '6213a2cb98ff25e0'},
             # groupby-p1: re-recorded at PR 19 (see the module
             # docstring); '33d619a78a652f2d' / '7c29b80c20085dd3' before
             'stage_graphs': {'groupby-p1@0': '159e3ca49ef76810',
                              'groupby-p1@1': 'aa80fce9f57501c9',
                              'groupby-p2@0': '4c800b6067f95741',
                              'groupby-p2@1': '963ef046d2ef8faf'}},
 'nowsort': {'phases': {'pass1': '0.0035211916666666675',
                        'pass2': '0.004864249999999995'},
             # metrics and trace: re-recorded at PR 19 (see the module
             # docstring); 'a514941646b7afcd' / 'cd0fd3ea03b086d4' before
             'digests': {'metrics': '715e7fb717b87310',
                         'output': 'ae40957e04605480',
                         'trace': '4fd6a09fff313ab9'},
             'stage_graphs': {'nowsort-p1@0': '0dec2bacc9e2bf11',
                              'nowsort-p1@1': '1d2fe74f909276b3',
                              'nowsort-p1@2': '658f06b229669d86',
                              'nowsort-p1@3': 'bc692c91be3d6b4b',
                              'nowsort-p2@0': 'e2474fe88788c603',
                              'nowsort-p2@1': 'a111e81ae2cf35d8',
                              'nowsort-p2@2': '7dbd0a1b79ef0f8f',
                              'nowsort-p2@3': 'dfd83a52bdc03c84'}}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_program_is_what_it_was_before_the_stage_library(name):
    observed = CASES[name]()
    pinned = PINNED[name]
    # stage graphs first: a reclassified stage explains every digest
    assert observed["stage_graphs"] == pinned["stage_graphs"]
    assert observed == pinned


if __name__ == "__main__":
    pprint.pprint({name: CASES[name]() for name in sorted(CASES)},
                  width=76, sort_dicts=False)
