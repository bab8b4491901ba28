"""Tests for the disk-backed artifact cache (repro.service.cache).

Four contracts: round-trip fidelity (what you put is what you get, across
instances and processes — a fitted proposal down to its bytes), loud
format failure (schema skew and corruption raise
:class:`CacheSchemaError` naming the file, never mis-deserialise and
never reach an unpickler), and crash tolerance (a dangling index row is
a miss, not an error).
"""

import hashlib
import io
import json
import pickle

import numpy as np
import pytest

from repro.gibbs.two_stage import fit_first_stage
from repro.mc.results import SCHEMA_VERSION, ConvergenceTrace, EstimationResult
from repro.parallel.ledger import proposal_fingerprint
from repro.service.cache import ArtifactCache, CacheEntry, CacheSchemaError
from repro.service.jobs import JobRequest
from repro.service.keys import job_key, request_identity
from repro.synthetic import LinearMetric


def _entry(request: JobRequest, n_samples: int = 64) -> CacheEntry:
    weights = np.zeros(n_samples)
    weights[::7] = 1e-5
    result = EstimationResult(
        method=request.method,
        failure_probability=float(weights.mean()),
        relative_error=0.05,
        n_first_stage=123,
        n_second_stage=n_samples,
        trace=ConvergenceTrace.from_weights(weights),
        extras={"n_failures": int(np.count_nonzero(weights))},
    )
    return CacheEntry(
        key=job_key(request),
        config=request_identity(request),
        result=result,
        shard_size=32,
    )


class Unpickled(BaseException):
    """Raised on reaching an unpickler; ``except Exception`` cannot eat it."""


@pytest.fixture
def no_unpickling(monkeypatch):
    def refuse(*args, **kwargs):
        raise Unpickled("the cache reached an unpickler")

    for name in ("load", "loads", "Unpickler"):
        monkeypatch.setattr(pickle, name, refuse)


def _rewrite_npz(root, key, arrays) -> None:
    """Replace an entry's arrays and re-sign them in its JSON."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    _replace_npz_bytes(root, key, buffer.getvalue())


def _replace_npz_bytes(root, key, blob) -> None:
    (root / f"{key}.npz").write_bytes(blob)
    path = root / f"{key}.json"
    document = json.loads(path.read_text())
    document["npz_sha256"] = hashlib.sha256(blob).hexdigest()
    path.write_text(json.dumps(document))


class TestRoundTrip:
    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("deadbeef") is None
        assert cache.misses == 1 and cache.hits == 0

    def test_put_get_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        request = JobRequest(seed=3)
        entry = _entry(request)
        cache.put(entry.key, entry)
        loaded = cache.get(entry.key)
        assert loaded.key == entry.key
        assert loaded.config == request_identity(request)
        assert loaded.shard_size == 32
        assert loaded.result.failure_probability == entry.result.failure_probability
        assert loaded.result.extras == entry.result.extras
        for name in ("n_samples", "estimate", "relative_error"):
            np.testing.assert_array_equal(
                getattr(loaded.result.trace, name),
                getattr(entry.result.trace, name),
            )
        assert cache.hits == 1

    def test_index_persists_across_instances(self, tmp_path):
        request = JobRequest(seed=9)
        entry = _entry(request)
        ArtifactCache(tmp_path).put(entry.key, entry)
        reopened = ArtifactCache(tmp_path)
        assert entry.key in reopened
        assert len(reopened) == 1
        assert reopened.get(entry.key).result.n_first_stage == 123

    def test_per_entry_hit_tally_persists(self, tmp_path):
        entry = _entry(JobRequest(seed=1))
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        cache.get(entry.key)
        cache.get(entry.key)
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["entries"][entry.key]["hits"] == 2

    def test_refinement_tally(self, tmp_path):
        entry = _entry(JobRequest(seed=2))
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        cache.note_refinement(entry.key)
        assert cache.refinements == 1
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["entries"][entry.key]["refinements"] == 1

    def test_put_preserves_created_at_and_tallies(self, tmp_path):
        entry = _entry(JobRequest(seed=4))
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        cache.get(entry.key)
        cache.put(entry.key, entry)  # refresh (e.g. after refinement)
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["entries"][entry.key]["hits"] == 1

    def test_stats_shape(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stats = cache.stats()
        assert stats["entries"] == 0
        assert set(stats) >= {"root", "entries", "hits", "misses", "refinements"}


@pytest.mark.usefixtures("no_unpickling")
class TestLoudFormatFailure:
    def test_corrupt_json_raises_schema_error(self, tmp_path):
        entry = _entry(JobRequest(seed=5))
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        (tmp_path / f"{entry.key}.json").write_text("{not json at all")
        with pytest.raises(CacheSchemaError, match="failed to load"):
            ArtifactCache(tmp_path).get(entry.key)

    def test_truncated_npz_raises_schema_error(self, tmp_path):
        entry = _entry(JobRequest(seed=12))
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        blob = (tmp_path / f"{entry.key}.npz").read_bytes()
        _replace_npz_bytes(tmp_path, entry.key, blob[: len(blob) // 2])
        with pytest.raises(CacheSchemaError, match="failed to load"):
            ArtifactCache(tmp_path).get(entry.key)

    def test_npz_not_named_by_its_json_raises(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = _entry(JobRequest(seed=13))
        second = _entry(JobRequest(seed=14), 96)
        cache.put(first.key, first)
        cache.put(second.key, second)
        (tmp_path / f"{first.key}.npz").write_bytes(
            (tmp_path / f"{second.key}.npz").read_bytes()
        )
        with pytest.raises(CacheSchemaError, match="not the array file"):
            ArtifactCache(tmp_path).get(first.key)

    def test_object_array_npz_raises(self, tmp_path):
        entry = _entry(JobRequest(seed=8))
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        with np.load(tmp_path / f"{entry.key}.npz") as npz:
            arrays = {name: npz[name] for name in npz.files}
        name = next(iter(arrays))
        arrays[name] = np.array([{"i am": "not a number"}], dtype=object)
        _rewrite_npz(tmp_path, entry.key, arrays)
        with pytest.raises(CacheSchemaError, match="failed to load"):
            ArtifactCache(tmp_path).get(entry.key)

    def test_json_holding_no_entry_raises(self, tmp_path):
        entry = _entry(JobRequest(seed=17))
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        path = tmp_path / f"{entry.key}.json"
        document = json.loads(path.read_text())
        document["entry"] = {"i am": "not a CacheEntry"}
        path.write_text(json.dumps(document))
        with pytest.raises(CacheSchemaError, match="not an entry"):
            ArtifactCache(tmp_path).get(entry.key)

    def test_class_outside_allowlist_raises(self, tmp_path):
        entry = _entry(JobRequest(seed=15))
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        path = tmp_path / f"{entry.key}.json"
        path.write_text(
            path.read_text().replace('"ConvergenceTrace"', '"Popen"')
        )
        with pytest.raises(CacheSchemaError, match="Popen"):
            ArtifactCache(tmp_path).get(entry.key)

    def test_foreign_entry_version_raises(self, tmp_path):
        entry = _entry(JobRequest(seed=6))
        entry.schema_version = SCHEMA_VERSION + 1
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        with pytest.raises(CacheSchemaError, match="schema_version"):
            ArtifactCache(tmp_path).get(entry.key)

    def test_foreign_result_version_raises(self, tmp_path):
        # The entry wrapper may match while the payload inside is old.
        entry = _entry(JobRequest(seed=7))
        entry.result.schema_version = SCHEMA_VERSION - 1
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        with pytest.raises(CacheSchemaError, match="schema_version"):
            ArtifactCache(tmp_path).get(entry.key)

    def test_foreign_index_version_raises_on_open(self, tmp_path):
        (tmp_path / "index.json").write_text(
            json.dumps({"schema_version": SCHEMA_VERSION + 1, "entries": {}})
        )
        with pytest.raises(CacheSchemaError, match="foreign format"):
            ArtifactCache(tmp_path)

    def test_unreadable_index_raises_on_open(self, tmp_path):
        (tmp_path / "index.json").write_text("{truncated")
        with pytest.raises(CacheSchemaError, match="unreadable"):
            ArtifactCache(tmp_path)


@pytest.mark.usefixtures("no_unpickling")
class TestCrashTolerance:
    def test_dangling_index_row_is_a_miss_and_heals(self, tmp_path):
        entry = _entry(JobRequest(seed=11))
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        (tmp_path / f"{entry.key}.json").unlink()
        reopened = ArtifactCache(tmp_path)
        assert reopened.get(entry.key) is None
        assert reopened.misses == 1
        # The row is dropped, so a fresh instance no longer lists it.
        assert entry.key not in ArtifactCache(tmp_path)

    def test_missing_npz_is_a_miss_and_heals(self, tmp_path):
        entry = _entry(JobRequest(seed=10))
        cache = ArtifactCache(tmp_path)
        cache.put(entry.key, entry)
        (tmp_path / f"{entry.key}.npz").unlink()
        assert ArtifactCache(tmp_path).get(entry.key) is None
        assert entry.key not in ArtifactCache(tmp_path)

    def test_pickled_entry_of_older_builds_is_a_miss(self, tmp_path):
        """Older builds stored ``<key>.pkl``; it is never opened."""
        key = job_key(JobRequest(seed=16))
        (tmp_path / f"{key}.pkl").write_bytes(pickle.dumps({"old": "entry"}))
        (tmp_path / "index.json").write_text(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "entries": {key: {"file": f"{key}.pkl", "hits": 3}},
        }))
        cache = ArtifactCache(tmp_path)
        assert cache.get(key) is None and cache.misses == 1
        assert key not in ArtifactCache(tmp_path)


class TestProposalRoundTrip:
    @pytest.mark.parametrize("proposal_fit", ["normal", "mixture"])
    def test_fitted_proposal_reads_back_bit_equal(
        self, tmp_path, proposal_fit
    ):
        """Same fingerprint, logpdf and draws: the IS ledger key survives.

        A mixture rebuilt through its constructor re-normalises its
        weights, which moves their bits on some seeds.
        """
        problem = LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")
        cache = ArtifactCache(tmp_path)
        points = np.random.default_rng(99).standard_normal((64, 2)) + 2.0
        for seed in range(40):
            fitted = fit_first_stage(
                problem.metric, problem.spec, dimension=2, n_gibbs=30,
                doe_budget=60, rng=seed, proposal_fit=proposal_fit,
            )
            entry = _entry(JobRequest(seed=seed, proposal_fit=proposal_fit))
            entry.artifact = fitted.lean()
            cache.put(entry.key, entry)
            stored = fitted.proposal
            loaded = cache.get(entry.key).artifact.proposal
            assert type(loaded) is type(stored)
            assert proposal_fingerprint(loaded) == proposal_fingerprint(stored)
            np.testing.assert_array_equal(
                loaded.logpdf(points), stored.logpdf(points)
            )
            np.testing.assert_array_equal(
                loaded.sample(64, np.random.default_rng(seed)),
                stored.sample(64, np.random.default_rng(seed)),
            )


class TestKeyDiscipline:
    def test_equivalent_spellings_share_an_entry(self, tmp_path):
        a = JobRequest(seed=2, sigma_global=0.03, corner="tt")
        b = JobRequest(corner="TT", sigma_global=0.03, seed=2.0)
        assert job_key(a) == job_key(b)

    def test_serving_knobs_do_not_split_entries(self):
        a = JobRequest(seed=2, n_second_stage=1000, shard_size=128,
                       timeout=5.0, use_cache=False)
        b = JobRequest(seed=2, n_second_stage=9000, shard_size=512)
        assert job_key(a) == job_key(b)

    @pytest.mark.parametrize("field,value", [
        ("seed", 3),
        ("corner", "SS"),
        ("threshold", 2.0e-5),
        ("sigma_global", 0.05),
        ("problem", "rnm"),
        ("method", "G-C"),
        ("n_gibbs", 400),
        ("proposal_fit", "mixture"),
    ])
    def test_identity_fields_never_collide(self, field, value):
        base = JobRequest(seed=2)
        changed = JobRequest(**{**base.to_dict(), field: value})
        assert job_key(changed) != job_key(base)
