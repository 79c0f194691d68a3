"""Built-in concept pools and trace sampling."""
import pytest

from cnapwp.errors import ConfigurationError
from cnapwp.stream import load_concept_pool, parse_event_log
from cnapwp.synthetic import ProcessSpec, builtin_processes, sample_pool, write_pool_csv


def test_three_concepts_with_eight_variants_each():
    specs = builtin_processes()
    assert set(specs) == {"pipeline", "expedite", "review_loop"}
    for spec in specs.values():
        assert len(spec.variants) == 8
        assert sum(w for w, _ in spec.variants) == pytest.approx(1.0, abs=1e-12)
        for _, trace in spec.variants:
            assert trace[0] == "Register"
            assert trace[-1] == "Archive"


def test_concepts_share_one_alphabet():
    specs = builtin_processes()
    alphabets = {
        name: {a for _, trace in spec.variants for a in trace} for name, spec in specs.items()
    }
    union = set.union(*alphabets.values())
    assert len(union) == 12
    for name, alphabet in alphabets.items():
        assert alphabet <= union


def test_concepts_disagree_on_the_step_after_register():
    """The same prefix must demand different continuations per concept."""
    specs = builtin_processes()
    successors = {}
    for name, spec in specs.items():
        successors[name] = {
            trace[i + 1]
            for _, trace in spec.variants
            for i in range(len(trace) - 1)
            if trace[i] == "Register"
        }
    assert successors["pipeline"] == {"Triage"}
    assert successors["review_loop"] == {"Validate"}
    assert successors["expedite"] == {"Assess", "Escalate"}
    names = list(successors)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert successors[a].isdisjoint(successors[b])


def test_process_spec_validation():
    with pytest.raises(ConfigurationError):
        ProcessSpec("bad", ((0.5, ("a",)), (0.4, ("b",))))
    with pytest.raises(ConfigurationError):
        ProcessSpec("bad", ((1.0, ()),))


def test_sample_pool_draws_only_declared_variants():
    spec = builtin_processes()["pipeline"]
    declared = {trace for _, trace in spec.variants}
    assert all(trace in declared for trace in sample_pool(spec, 50, seed=0))


def test_sample_pool_is_deterministic_per_name():
    specs = builtin_processes()
    a = sample_pool(specs["pipeline"], 30, seed=9)
    b = sample_pool(specs["pipeline"], 30, seed=9)
    assert a == b
    assert sample_pool(specs["pipeline"], 30, seed=10) != a
    # concepts with identical weights still draw independent streams
    expedite = sample_pool(specs["expedite"], 30, seed=9)
    variant_ranks_a = [
        next(i for i, (_, t) in enumerate(specs["pipeline"].variants) if t == trace) for trace in a
    ]
    variant_ranks_e = [
        next(i for i, (_, t) in enumerate(specs["expedite"].variants) if t == trace)
        for trace in expedite
    ]
    assert variant_ranks_a != variant_ranks_e


def test_sample_pool_validation():
    with pytest.raises(ConfigurationError):
        sample_pool(builtin_processes()["pipeline"], 0, seed=1)


def test_write_pool_csv_one_case_per_trace(tmp_path):
    path = tmp_path / "pool.csv"
    write_pool_csv(path, [("a", "b"), ("c",)])
    assert [(e.case_id, e.activity) for e in parse_event_log(path).events] == [
        ("p0", "a"),
        ("p0", "b"),
        ("p1", "c"),
    ]


def test_pool_csv_roundtrip(tmp_path):
    pool = sample_pool(builtin_processes()["expedite"], 12, seed=3)
    path = tmp_path / "expedite.csv"
    write_pool_csv(path, pool)
    loaded = load_concept_pool(path)
    assert loaded == pool
