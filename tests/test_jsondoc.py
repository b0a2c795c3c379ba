"""One reader for documents that come from outside (``repro.jsondoc``).

Every document class answers a malformed document the same way — its
subsystem's error, the dotted path, the offending field — writes the
bytes PR 24's parent wrote, and round-trips.  No FG program is
assembled here, so FGSan / FGRace have nothing to watch.
"""

import copy
import glob
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import FaultError, ReproError, SchedError
from repro.faults import FaultPlan
from repro.faults.plan import (
    DiskFaultAt,
    DiskFaults,
    MessageDrops,
    NicDegradation,
    NodeCrash,
    Straggler,
)
from repro.faults.retry import RetryPolicy
from repro.jsondoc import from_doc, to_doc
from repro.plan import Plan, PlanDecision
from repro.prov import ProvenanceRecord, canonical_json
from repro.recover import RecoverPolicy, SpeculationPolicy
from repro.sched import Arrival, ArrivalTrace, JobSpec, Quota

from .jsondoc_samples import samples

HERE = os.path.dirname(__file__)
GOLDEN = sorted(glob.glob(os.path.join(
    HERE, "..", "benchmarks", "results", "golden_*.prov.json")))


def _retry_from_json(doc):
    return from_doc(RetryPolicy, doc, error=FaultError)


#: sample name -> (reader, the error class its subsystem refuses with)
READERS = {
    "Quota": (Quota.from_json, SchedError),
    "JobSpec": (JobSpec.from_json, SchedError),
    "ArrivalTrace": (ArrivalTrace.from_json, SchedError),
    "SpeculationPolicy": (SpeculationPolicy.from_json, FaultError),
    "RecoverPolicy": (RecoverPolicy.from_json, FaultError),
    "RecoverPolicy.plain": (RecoverPolicy.from_json, FaultError),
    "RetryPolicy": (_retry_from_json, FaultError),
    "Plan": (Plan.from_json, ReproError),
    "FaultPlan": (FaultPlan.from_json, FaultError),
    "ProvenanceRecord": (ProvenanceRecord.from_json, ReproError),
}

SAMPLES = samples()
SPEC_FIELDS = [name for name in SAMPLES["FaultPlan"].to_json()
               if name != "seed"]


def _document(name):
    obj = SAMPLES[name]
    return obj.to_json() if hasattr(obj, "to_json") else to_doc(obj)


# -- the one rule -----------------------------------------------------------

DELETE = object()

#: (sample, where to edit, the edit, path the message names, field named)
EDITS = [
    # a field the class does not declare, at the top level ...
    *[(name, (), ("bogus_field", 1), name.split(".")[0], "bogus_field")
      for name in READERS],
    # ... and in every nested document class
    ("ArrivalTrace", ("arrivals", 0), ("when", 1.0),
     "ArrivalTrace.arrivals[0]", "when"),
    ("ArrivalTrace", ("arrivals", 0, "spec"), ("n_node", 2),
     "ArrivalTrace.arrivals[0].spec", "n_node"),
    ("RecoverPolicy", ("speculation",), ("patient", 3),
     "RecoverPolicy.speculation", "patient"),
    ("Plan", ("decisions", 0), ("because", "x"),
     "Plan.decisions[0]", "because"),
    *[("FaultPlan", (field, 0), ("bogus_field", 1),
       f"FaultPlan.{field}[0]", "bogus_field")
      for field in SPEC_FIELDS],
    # a field with no default, left out
    ("JobSpec", (), ("tenant", DELETE), "JobSpec", "tenant"),
    ("ArrivalTrace", (), ("arrivals", DELETE), "ArrivalTrace", "arrivals"),
    ("ArrivalTrace", ("arrivals", 0), ("spec", DELETE),
     "ArrivalTrace.arrivals[0]", "spec"),
    ("ArrivalTrace", ("arrivals", 1, "spec"), ("kind", DELETE),
     "ArrivalTrace.arrivals[1].spec", "kind"),
    ("Plan", (), ("config", DELETE), "Plan", "config"),
    ("Plan", ("decisions", 0), ("reason", DELETE),
     "Plan.decisions[0]", "reason"),
    ("FaultPlan", ("stragglers", 0), ("slowdown", DELETE),
     "FaultPlan.stragglers[0]", "slowdown"),
    # the wrong container where an array of documents belongs
    ("ArrivalTrace", (), ("arrivals", {"time": 0.0}),
     "ArrivalTrace.arrivals", "list"),
    ("Plan", (), ("decisions", {"target": "x"}), "Plan.decisions", "list"),
    ("FaultPlan", (), ("disk_faults", {"rate": 0.1}),
     "FaultPlan.disk_faults", "list"),
    # a nested document that is not an object
    ("ArrivalTrace", ("arrivals", 0), ("spec", "blocks"),
     "ArrivalTrace.arrivals[0].spec", "JSON object"),
    ("RecoverPolicy", (), ("speculation", [0.01]),
     "RecoverPolicy.speculation", "JSON object"),
    # a scalar of the wrong JSON type
    ("JobSpec", (), ("n_nodes", "2"), "JobSpec.n_nodes", "int"),
    ("Quota", (), ("max_nodes", True), "Quota.max_nodes", "int"),
    ("ProvenanceRecord", (), ("args", [1]), "ProvenanceRecord.args", "dict"),
]


@pytest.mark.parametrize(
    "name, where, edit, path, field", EDITS,
    ids=[f"{e[0]}-{e[3]}-{e[4]}" for e in EDITS])
def test_a_malformed_document_is_refused_by_path_and_field(
        name, where, edit, path, field):
    reader, error = READERS[name]
    doc = copy.deepcopy(_document(name))
    target = doc
    for step in where:
        target = target[step]
    key, value = edit
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(error) as refused:
        reader(doc)
    message = str(refused.value)
    assert message.startswith(path + ":"), message
    assert field in message


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize("junk", [[1], "text", 7, None],
                         ids=["array", "string", "number", "null"])
def test_a_document_that_is_not_an_object_is_refused(name, junk):
    reader, error = READERS[name]
    with pytest.raises(error, match="JSON object"):
        reader(junk)


def test_the_class_s_own_validation_still_runs_after_the_rule():
    with pytest.raises(SchedError, match="n_nodes must be >= 1"):
        JobSpec.from_json({"tenant": "a", "kind": "blocks", "n_nodes": 0})
    with pytest.raises(FaultError, match="reassign needs backup_runs"):
        RecoverPolicy.from_json({"reassign": True})
    with pytest.raises(FaultError, match="rate must be in"):
        FaultPlan.from_json({"disk_faults": [{"rate": 1.5}]})
    doc = _document("Plan")
    doc["n_nodes"] = 8
    with pytest.raises(ReproError, match="digest mismatch"):
        Plan.from_json(doc)


def test_a_newer_record_is_refused_for_its_version_not_its_new_field():
    doc = _document("ProvenanceRecord")
    doc["record_version"] += 1
    doc["added_by_the_newer_writer"] = True
    with pytest.raises(ReproError, match="newer than this code"):
        ProvenanceRecord.from_json(doc)


# -- same bytes out, same object back ---------------------------------------


@pytest.mark.parametrize("name", sorted(READERS))
def test_the_document_is_spelt_as_the_parent_commit_spelt_it(name):
    with open(os.path.join(HERE, "fixtures",
                           "parent_documents.json")) as fh:
        parent = json.load(fh)
    doc = _document(name)
    assert canonical_json(doc) == canonical_json(parent[name])
    reader, _ = READERS[name]
    again = reader(json.loads(json.dumps(doc)))
    if name == "FaultPlan":  # a mutable builder: compared by identity
        assert again.to_json() == doc
    else:
        assert again == SAMPLES[name]


@pytest.mark.parametrize("path", GOLDEN, ids=os.path.basename)
def test_a_committed_golden_record_resaves_byte_identical(path):
    with open(path) as fh:
        committed = fh.read()
    resaved = io.StringIO()
    ProvenanceRecord.load(path).save(resaved)
    assert resaved.getvalue() == committed


_finite = dict(allow_nan=False, allow_infinity=False)
_window = st.tuples(st.floats(0, 10, **_finite),
                    st.none() | st.floats(10, 20, **_finite))
_rank = st.integers(0, 7)
_rate = st.floats(0, 1, **_finite)
_factor = st.floats(1, 8, **_finite)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(**_finite)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3), max_leaves=8)
_object = st.dictionaries(st.text(), _json, max_size=3)

_quota = st.builds(
    Quota, max_nodes=st.integers(1, 64), max_inflight=st.integers(1, 64),
    max_buffer_bytes=st.integers(1, 1 << 40),
    weight=st.floats(0.001, 100, **_finite) | st.integers(1, 9))
_spec = st.builds(
    JobSpec, tenant=st.text(min_size=1), kind=st.text(min_size=1),
    n_nodes=st.integers(1, 16), params=_object, priority=st.integers(-5, 5))
_trace = st.builds(
    ArrivalTrace,
    arrivals=st.lists(st.builds(Arrival, time=st.floats(0, 1e6, **_finite),
                                spec=_spec), max_size=4).map(tuple))
_speculation = st.builds(
    SpeculationPolicy, interval=st.floats(1e-6, 10, **_finite),
    patience=st.integers(1, 9),
    lag_ratio=st.floats(0.01, 0.99, **_finite),
    min_progress=st.floats(0, 0.99, **_finite))
_recover = st.builds(
    RecoverPolicy, checkpoint=st.booleans(), backup_runs=st.just(True),
    reassign=st.booleans(), speculation=st.none() | _speculation,
    tick=st.floats(1e-6, 1, **_finite), journal_every=st.integers(1, 64))
_retry = st.builds(
    RetryPolicy, max_attempts=st.integers(1, 9),
    base_delay=st.floats(0, 1, **_finite),
    multiplier=st.floats(1, 4, **_finite),
    max_delay=st.floats(0, 1, **_finite), jitter=st.floats(0, 1, **_finite),
    op_timeout=st.none() | st.floats(1e-6, 10, **_finite))
_plan = st.builds(
    Plan, sorter=st.sampled_from(["dsort", "csort"]),
    n_nodes=st.integers(1, 64), n_per_node=st.integers(1, 1 << 30),
    record_bytes=st.sampled_from([16, 64]),
    config=st.dictionaries(st.text(), st.integers(), max_size=4),
    decisions=st.lists(st.builds(PlanDecision, target=st.text(), value=_json,
                                 reason=st.text()), max_size=3).map(tuple))
_record = st.builds(
    ProvenanceRecord, kind=st.text(), args=_object, seeds=_object,
    fault_plan=st.none() | _object, tune_decisions=st.lists(_object,
                                                            max_size=2),
    stage_graphs=_object, digests=_object, repro_version=st.text(),
    created=st.text())


@st.composite
def _fault_plan(draw):
    plan = FaultPlan(seed=draw(st.integers(0, 1 << 32)))
    for field, spec in draw(st.lists(st.one_of(
            st.tuples(st.just("disk_faults"), st.builds(
                lambda rate, rank, perm, w: DiskFaults(rate, rank, perm, *w),
                _rate, st.none() | _rank, st.booleans(), _window)),
            st.tuples(st.just("disk_fault_ats"), st.builds(
                DiskFaultAt, _rank, st.integers(0, 99), st.booleans())),
            st.tuples(st.just("message_drops"), st.builds(
                lambda rate, src, dst, w: MessageDrops(rate, src, dst, *w),
                _rate, st.none() | _rank, st.none() | _rank, _window)),
            st.tuples(st.just("nic_degradations"), st.builds(
                lambda f, rank, w: NicDegradation(f, rank, *w),
                _factor, st.none() | _rank, _window)),
            st.tuples(st.just("stragglers"), st.builds(
                lambda rank, f, w: Straggler(rank, f, *w),
                _rank, _factor, _window)),
            st.tuples(st.just("node_crashes"), st.builds(
                NodeCrash, _rank, st.floats(0, 10, **_finite)))),
            max_size=6)):
        getattr(plan, field).append(spec)
    return plan


STRATEGIES = {
    "Quota": _quota, "JobSpec": _spec, "ArrivalTrace": _trace,
    "SpeculationPolicy": _speculation, "RecoverPolicy": _recover,
    "RetryPolicy": _retry, "Plan": _plan, "ProvenanceRecord": _record}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_from_json_inverts_to_json(name):
    reader, _ = READERS[name]

    @settings(max_examples=40, deadline=None)
    @given(STRATEGIES[name])
    def check(obj):
        doc = obj.to_json() if hasattr(obj, "to_json") else to_doc(obj)
        through_text = json.loads(json.dumps(doc))
        assert reader(through_text) == obj
        assert reader(doc) == obj

    check()


@settings(max_examples=40, deadline=None)
@given(_fault_plan())
def test_fault_plan_from_json_inverts_to_json(plan):
    doc = plan.to_json()
    again = FaultPlan.from_json(json.loads(json.dumps(doc)))
    assert again.to_json() == doc
    for field in SPEC_FIELDS:
        assert getattr(again, field) == getattr(plan, field)


# -- the CLI answers with one line ------------------------------------------


def _refused(argv, capsys, names):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"repro {argv[0]}: error: ")
    assert captured.err.count("\n") == 1
    assert names in captured.err
    assert "Traceback" not in captured.err
    return captured


@pytest.mark.parametrize("argv, names", [
    (["sched", "--nodes", "4", "--trace-in", "typo_trace.json"],
     "arrivals[0].spec: unknown field(s) ['n_node', 'param']"),
    (["replay", "unknown_arg.prov.json"],
     "ProvenanceRecord.args: unknown field(s) ['n_per_nodes']"),
    (["replay", "non_object.prov.json"], "not a provenance record"),
], ids=["typo-d-trace", "unknown-arg", "non-object"])
def test_the_cli_refuses_a_malformed_fixture_before_running_anything(
        argv, names, capsys):
    # the same three files CI's static-analysis job feeds the CLI
    argv = [*argv[:-1], os.path.join(HERE, "fixtures", "malformed", argv[-1])]
    assert _refused(argv, capsys, names).out == ""


def _saved(tmp_path, doc):
    path = tmp_path / "edited.prov.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("golden", GOLDEN, ids=os.path.basename)
def test_replay_refuses_an_args_key_the_harness_does_not_take(
        golden, tmp_path, capsys):
    with open(golden) as fh:
        doc = json.load(fh)
    doc["args"]["n_node"] = 2
    _refused(["replay", _saved(tmp_path, doc)], capsys,
             "ProvenanceRecord.args: unknown field(s) ['n_node']")


def test_replay_refuses_a_record_that_lacks_a_required_arg(tmp_path, capsys):
    with open(GOLDEN[-1]) as fh:
        doc = json.load(fh)
    del doc["args"]["record_bytes"]
    _refused(["replay", _saved(tmp_path, doc)], capsys,
             "ProvenanceRecord.args: missing field(s) ['record_bytes']")


def test_replay_refuses_a_sched_record_with_a_typo_d_quota(tmp_path, capsys):
    trace = SAMPLES["ArrivalTrace"]
    doc = ProvenanceRecord(kind="sched", args={
        "trace": trace.to_json(),
        "quotas": {"alpha": {"max_node": 1}}}).to_json()
    _refused(["replay", _saved(tmp_path, doc)], capsys,
             "ProvenanceRecord.args.quotas['alpha']: unknown field(s) "
             "['max_node']")


def test_an_unparsable_or_missing_document_path_is_one_line_too(
        tmp_path, capsys):
    path = tmp_path / "torn.json"
    path.write_text('{"kind": "sort"')
    _refused(["replay", str(path)], capsys, "Expecting")
    _refused(["replay", str(tmp_path / "absent.json")], capsys,
             "absent.json")
    _refused(["sched", "--trace-in", str(tmp_path / "absent.json")],
             capsys, "absent.json")
