"""Result cache, plan parsing, and runner orchestration tests."""

import csv
import hashlib
import json
import os

import pytest

from wmvlab import bounds, cli, counting, runner
from wmvlab.runcache import (CSV_HEADER, ENGINE_VERSION, CacheCorruption,
                             CacheVersionMismatch, ResultCache, RunRecord,
                             append_records, cache_key)
from wmvlab.runner import PlanError, _parse_int_list, load_plan, run_plan


def _plan(tmp_path, text, name="plan.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# cache behaviour


def test_cache_lookup_miss_then_hit_then_changed_param(tmp_path):
    cache_dir = str(tmp_path / "cache")
    params = {"X": 12, "s": 4}
    assert ResultCache(cache_dir).lookup([("moment_count", params)]) is None

    cache = ResultCache(cache_dir)
    cache.store([RunRecord("a" * 12, "moment_count", params, "253", None, 0.01, True)])

    (hit,) = ResultCache(cache_dir).lookup([("moment_count", params)])
    assert hit.value == "253"
    assert hit.exact is True
    # any change to op or params is a miss
    assert ResultCache(cache_dir).lookup([("moment_count", {"X": 12, "s": 6})]) is None
    assert ResultCache(cache_dir).lookup([("vinogradov_count", params)]) is None


def test_cache_lookup_leaves_an_empty_directory_empty(tmp_path):
    assert ResultCache(str(tmp_path)).lookup([("moment_count", {"X": 12, "s": 4})]) is None
    assert os.listdir(tmp_path) == []
    missing = tmp_path / "missing"
    assert ResultCache(str(missing)).lookup([("moment_count", {"X": 12, "s": 4})]) is None
    assert not missing.exists()


def test_records_without_a_manifest_are_refused_and_left_alone(tmp_path):
    root = tmp_path / "orphaned"
    key = ("moment_count", {"X": 4, "s": 6})
    ResultCache(str(root)).store([RunRecord("a" * 12, *key, "999", None, 0.0, True)])
    (root / "manifest.json").unlink()
    before = {name: (root / name).read_bytes() for name in os.listdir(root)}
    with pytest.raises(CacheVersionMismatch, match="holds records but no manifest"):
        ResultCache(str(root))
    assert {name: (root / name).read_bytes() for name in os.listdir(root)} == before

    # a directory with neither a manifest nor records is adopted: a lookup
    # leaves it empty, and the first store stamps the current manifest
    empty = tmp_path / "empty"
    empty.mkdir()
    cache = ResultCache(str(empty))
    assert cache.lookup([key]) is None
    assert os.listdir(empty) == []
    cache.store([RunRecord("b" * 12, *key, "729", None, 0.0, True)])
    assert sorted(os.listdir(empty)) == sorted(["manifest.json", cache_key([key]) + ".json"])
    assert json.loads((empty / "manifest.json").read_text())["engine_version"] == ENGINE_VERSION


def test_cache_key_is_order_insensitive():
    a = cache_key([("moment_count", {"X": 5, "s": 2})])
    b = cache_key([("moment_count", {"s": 2, "X": 5})])
    assert a == b
    assert len(a) == 64
    int(a, 16)  # hex digest
    assert cache_key([("moment_count", {"X": 5, "s": 4})]) != a
    assert cache_key([("other_op", {"X": 5, "s": 2})]) != a
    # a group is its keys in order: reordered or extended lists are other groups
    pair = [("moment_count", {"X": 5, "s": 2}), ("moment_count", {"X": 6, "s": 2})]
    assert cache_key(pair) != cache_key(pair[::-1])
    assert cache_key(pair) not in (a, cache_key(pair[1:]))


def test_manifest_names_the_digest(tmp_path):
    ResultCache(str(tmp_path / "c")).store(
        [RunRecord("a" * 12, "moment_count", {"X": 2, "s": 2}, "2", None, 0.0, True)])
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["digest_algorithm"] == "sha256"
    assert manifest["layout"] == "one-group-per-file"


def test_cache_from_another_engine_version_is_refused(tmp_path, capsys):
    old = tmp_path / "old"
    old.mkdir()
    manifest = old / "manifest.json"
    # the manifest cache directories carried before engine versions
    manifest.write_text(json.dumps({"digest_algorithm": "sha256",
                                    "layout": "one-record-per-file",
                                    "version": 1}, indent=2) + "\n")
    with pytest.raises(CacheVersionMismatch) as info:
        ResultCache(str(old))
    assert str(old) in str(info.value)
    assert f"engine version missing, not the current {ENGINE_VERSION}" in str(info.value)
    manifest.write_text(json.dumps({"engine_version": ENGINE_VERSION - 1}))
    with pytest.raises(CacheVersionMismatch,
                       match=f"engine version {ENGINE_VERSION - 1}, not the current"):
        ResultCache(str(old))

    # `wmvlab run` exits 1 with that message and leaves the directory alone
    plan = _plan(tmp_path, "[i6-sweep]\nx = 4\n")
    before = manifest.read_text()
    assert cli.main(["run", "--config", plan, "--cache-dir", str(old)]) == 1
    err = capsys.readouterr().err
    assert str(old) in err and f"not the current {ENGINE_VERSION}" in err
    assert manifest.read_text() == before and os.listdir(old) == ["manifest.json"]

    fresh = tmp_path / "fresh"
    assert cli.main(["run", "--config", plan, "--cache-dir", str(fresh)]) == 0
    stamped = json.loads((fresh / "manifest.json").read_text())
    assert stamped["engine_version"] == ENGINE_VERSION
    assert ResultCache(str(fresh)).lookup([("moment_count", {"X": 4, "s": 6})]) is not None


def test_a_version_11_cache_is_refused_under_12(tmp_path, capsys):
    # engine 12 checksums another payload text, so an engine 11 directory
    # must be refused by its version, never replayed
    assert ENGINE_VERSION == 12
    plan = _plan(tmp_path, "[grid-sweep]\nx = 4\ns = 6\n")
    cache, first, again = tmp_path / "cache", tmp_path / "first.csv", tmp_path / "again.csv"
    assert cli.main(["run", "--config", plan, "--cache-dir", str(cache), "--out", str(first)]) == 0
    manifest = cache / "manifest.json"
    stamped = json.loads(manifest.read_text())
    stamped["engine_version"] = 11
    manifest.write_text(json.dumps(stamped))
    before = {name: (cache / name).read_bytes() for name in os.listdir(cache)}

    assert cli.main(["run", "--config", plan, "--cache-dir", str(cache), "--out", str(again)]) == 1
    assert ("holds results of engine version 11, not the current 12; use a fresh --cache-dir"
            in capsys.readouterr().err)
    assert not again.exists()
    assert {name: (cache / name).read_bytes() for name in os.listdir(cache)} == before
    with pytest.raises(CacheVersionMismatch, match="use a fresh --cache-dir"):
        ResultCache(str(cache))


def test_tampered_value_raises_cache_corruption(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = ("moment_count", {"X": 8, "s": 2})
    cache.store([RunRecord("b" * 12, *key, "8", None, 0.0, True)])

    path = tmp_path / (cache_key([key]) + ".json")
    blob = json.loads(path.read_text())
    assert blob["payload"]["records"][0][1] == "8"
    blob["payload"]["records"][0][1] = "9"
    path.write_text(json.dumps(blob, sort_keys=True, separators=(",", ":")))
    with pytest.raises(CacheCorruption, match="checksum mismatch"):
        cache.lookup([key])


def test_unreadable_or_incomplete_cache_file_raises(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = ("moment_count", {"X": 3, "s": 2})
    path = tmp_path / (cache_key([key]) + ".json")

    path.write_text("{ not json")
    with pytest.raises(CacheCorruption):
        cache.lookup([key])

    path.write_text(json.dumps({"payload": [{"run_id": "x"}]}))  # no checksum
    with pytest.raises(CacheCorruption):
        cache.lookup([key])


def test_store_then_lookup_roundtrips_every_field(tmp_path):
    cache = ResultCache(str(tmp_path))
    recs = [RunRecord("c" * 12, "moment_estimate", {"X": 6, "s": 3, "tol": 1e-6},
                      "123.4375", 2.5e-7, 1.25),
            RunRecord("d" * 12, "moment_count", {"X": 6, "s": 4}, "66", None, 0.5, True)]
    cache.store(recs)
    back = cache.lookup([("moment_estimate", {"X": 6, "s": 3, "tol": 1e-6}),
                         ("moment_count", {"X": 6, "s": 4})])
    assert back == recs
    assert back[0].exact is None


def _group_file(tmp_path, key=("moment_count", {"X": 8, "s": 2})):
    cache = ResultCache(str(tmp_path))
    cache.store([RunRecord("b" * 12, *key, "8", None, 0.0, True)])
    return cache, key, tmp_path / (cache_key([key]) + ".json")


def test_the_file_checksums_its_payload_text_as_stored(tmp_path):
    cache, key, path = _group_file(tmp_path)
    text = path.read_text()
    blob = json.loads(text)  # valid JSON, in its canonical compact form
    assert text == json.dumps(blob, sort_keys=True, separators=(",", ":"))
    start = text.index('"payload":') + len('"payload":')
    assert blob["checksum"] == hashlib.sha256(text[start:-1].encode()).hexdigest()
    assert blob["payload"] == {"keys": [list(key)],
                               "records": [["b" * 12, "8", None, 0.0, True, None]]}

    # flipping any one character of the payload text is a checksum mismatch
    for i in range(start, len(text) - 1):
        flipped = text[:i] + ("x" if text[i] != "x" else "y") + text[i + 1:]
        path.write_text(flipped)
        with pytest.raises(CacheCorruption, match="checksum mismatch"):
            cache.lookup([key])
    path.write_text(text)
    assert cache.lookup([key])[0].value == "8"


def test_checksummed_files_out_of_layout_or_with_malformed_records_raise(tmp_path):
    cache, key, path = _group_file(tmp_path)
    text = path.read_text()
    for changed in (text.replace('{"checksum"', '{ "checksum"'), text + "\n",
                    text.replace('"payload":', '"records":'), json.dumps(json.loads(text))):
        path.write_text(changed)
        with pytest.raises(CacheCorruption, match="missing payload or checksum"):
            cache.lookup([key])

    def rewrite(records_text):
        payload = '{"keys":%s,"records":%s}' % (
            json.dumps([list(key)], sort_keys=True, separators=(",", ":")), records_text)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        path.write_text('{"checksum":"%s","payload":%s}' % (digest, payload))

    for records_text in ('[["b","8",null,0.0,true,null,1]]', '[]', '[[]]', '[7]',
                         '[["b","8",null,0.0,true,null],["c","8",null,0.0,true,null]]',
                         '[["b","8",null'):
        rewrite(records_text)
        with pytest.raises(CacheCorruption, match="malformed records"):
            cache.lookup([key])
    rewrite('[["b","8",null,0.0,true,null]]')
    assert cache.lookup([key]) == [RunRecord("b", *key, "8", None, 0.0, True)]


def test_an_engine_11_directory_is_a_version_mismatch_not_corruption(tmp_path):
    # the layout engine 11 wrote: the records as dicts, checksummed by
    # re-serializing the parsed payload
    root = tmp_path / "old"
    root.mkdir()
    key = ("moment_count", {"X": 4, "s": 6})
    payload = [{"run_id": "a" * 12, "op": key[0], "params": key[1], "value": "2224",
                "err_est": None, "wall_seconds": 0.0, "exact": True}]
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    (root / (cache_key([key]) + ".json")).write_text(json.dumps(
        {"payload": payload, "checksum": hashlib.sha256(canon.encode()).hexdigest()},
        sort_keys=True))
    (root / "manifest.json").write_text(json.dumps(
        {"digest_algorithm": "sha256", "engine_version": 11,
         "layout": "one-group-per-file", "version": 1}, indent=2) + "\n")
    with pytest.raises(CacheVersionMismatch, match="engine version 11, not the current 12"):
        ResultCache(str(root))
    plan = _plan(tmp_path, "[i6-sweep]\nx = 4\n")
    with pytest.raises(CacheVersionMismatch):
        run_plan(plan, cache_dir=str(root))


def test_a_warm_replay_equals_the_cold_records_but_for_fresh_run_ids(tmp_path):
    text = ("[count-sweep]\nx = 2,3\ns = 4\n\n"
            "[grid-sweep]\nx = 4,6\ns = 5\n\n"
            "[restricted-sweep]\nx = 6\ns = 4\nq = 2,4\n\n"
            "[bounds-compare]\nx = 16\ntrials = 2\nseed = 5\n\n"
            "[lemma22-identity]\nx = 5\ntrials = 2\nseed = 1\n")
    path, cache_dir = _plan(tmp_path, text), str(tmp_path / "cache")
    _, cold = run_plan(path, cache_dir=cache_dir)
    listing = {e.name: e.stat().st_mtime_ns for e in os.scandir(cache_dir)}
    _, warm = run_plan(path, cache_dir=cache_dir)
    _, again = run_plan(path, cache_dir=cache_dir)
    assert {e.name: e.stat().st_mtime_ns for e in os.scandir(cache_dir)} == listing
    assert len(cold) == len(warm) == 2 + 2 + 2 + 3 + 2
    fields = [f for f in vars(cold[0]) if f != "run_id"]
    for c, w in zip(cold, warm):
        assert [getattr(c, f) for f in fields] == [getattr(w, f) for f in fields]
    assert {r.converged for r in cold if r.op == "moment_estimate"} == {True}
    assert {r.converged for r in cold if r.op != "moment_estimate"
            and r.op != "restricted_moment"} == {None}
    ids = [r.run_id for r in cold + warm + again]
    assert len(set(ids)) == len(ids)
    assert all(len(i) == 12 and set(i) <= set("0123456789abcdef") for i in ids)


# plan parsing


def test_load_plan_reads_sections_and_kind_override(tmp_path):
    path = _plan(tmp_path, (
        "[count-sweep]\n"
        "x = 2,3\n"
        "\n"
        "[second-counts]\n"
        "kind = Count-Sweep\n"
        "x = 4\n"
        "s = 2\n"
    ))
    plan = load_plan(path)
    assert [kind for kind, _ in plan] == ["count-sweep", "count-sweep"]
    assert plan[0][1] == {"x": "2,3"}
    assert plan[1][1] == {"x": "4", "s": "2"}


def test_missing_plan_file_raises():
    with pytest.raises(PlanError):
        load_plan("/nonexistent/plan.ini")


def test_unknown_experiment_name_runs_nothing(tmp_path):
    out, cache = tmp_path / "out.csv", tmp_path / "cache"
    for last, refusal in (("[mystery-sweep]\nx = 3\n", "unknown experiment name: mystery-sweep"),
                          ("[lemma22-identity]\nx = 5\ntrails = 3\n",
                           "lemma22-identity takes no option 'trails'"),
                          ("[i6-sweep]\nstep = 10\n", "i6-sweep needs option 'x'")):
        path = _plan(tmp_path, "[count-sweep]\nx = 2\n\n" + last)
        with pytest.raises(PlanError, match=refusal):
            run_plan(path, out=str(out), cache_dir=str(cache))
        assert not out.exists()  # validated before executing anything
        assert not cache.exists()


def test_malformed_value_in_the_last_item_writes_nothing(tmp_path):
    path = _plan(tmp_path, "[i6-sweep]\nx = 10\n\n[grid-sweep]\nx = 4\ns = abc\n")
    out, cache = tmp_path / "out.csv", tmp_path / "cache"
    with pytest.raises(PlanError, match="grid-sweep option 's': invalid literal"):
        run_plan(path, out=str(out), cache_dir=str(cache))
    assert not out.exists()
    assert not cache.exists()


def test_parse_int_list_forms():
    assert _parse_int_list("50..400", "50") == [50, 100, 150, 200, 250, 300, 350, 400]
    assert _parse_int_list("2..5") == [2, 3, 4, 5]
    assert _parse_int_list("2, 4, 8") == [2, 4, 8]
    with pytest.raises(ValueError):
        _parse_int_list("ten")
    for step in ("0", "-1"):  # a step below 1 would skip or drop values
        with pytest.raises(ValueError, match=f"step = {step} is below 1"):
            _parse_int_list("10..5", step)
    assert _parse_int_list("2, 4", "1") == [2, 4]
    with pytest.raises(ValueError, match="step = 2 needs a lo..hi range"):
        _parse_int_list("2, 4", "2")  # a list has no step to apply


def test_parse_int_list_sizes_a_list_before_building_it(monkeypatch):
    with pytest.raises(ValueError, match="1,000,000,000 values exceeds the 1,000,000 cap"):
        _parse_int_list("1..1000000000")
    monkeypatch.setattr(runner, "LIST_CAP", 5)
    assert _parse_int_list("1..9", "2") == [1, 3, 5, 7, 9]
    for text in ("1..6", "1,2,3,4,5,6"):
        with pytest.raises(ValueError, match="a list of 6 values exceeds the 5 cap"):
            _parse_int_list(text)


# plan execution


def test_empty_plan_is_success_with_zero_records(tmp_path):
    status, records = run_plan(_plan(tmp_path, "# nothing scheduled\n"))
    assert status == 0
    assert records == []


def test_i6_sweep_emits_one_record_per_x_and_reruns_from_cache(tmp_path):
    path = _plan(tmp_path, "[i6-sweep]\nx = 4..18\nstep = 2\n")
    cache_dir = str(tmp_path / "cache")

    status, records = run_plan(path, cache_dir=cache_dir)
    assert status == 0
    assert len(records) == 8
    assert [rec.params["X"] for rec in records] == [4, 6, 8, 10, 12, 14, 16, 18]
    for rec in records:
        assert rec.op == "moment_count"
        assert rec.params["s"] == 6
        assert rec.exact is True
        assert int(rec.value) == counting.moment_count(rec.params["X"], 6)

    status2, rerun = run_plan(path, cache_dir=cache_dir)
    assert status2 == 0
    assert [r.value for r in rerun] == [r.value for r in records]
    # cache hits keep the stored timing but mint a fresh run id
    assert [r.wall_seconds for r in rerun] == [r.wall_seconds for r in records]
    assert all(a.run_id != b.run_id for a, b in zip(records, rerun))


def test_warm_rerun_csv_bodies_match_outside_volatile_columns(tmp_path):
    text = ("[grid-sweep]\nx = 2,4\ns = 4\n\n"
            "[bounds-compare]\nx = 16\ntrials = 2\nseed = 3\n\n"
            "[lemma22-identity]\nx = 8\ntrials = 3\nseed = 1\n")
    path = _plan(tmp_path, text)
    cache_dir = str(tmp_path / "cache")
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"

    run_plan(path, out=str(cold), cache_dir=cache_dir)
    run_plan(path, out=str(warm), cache_dir=cache_dir)

    rows_cold, rows_warm = _csv_rows(cold), _csv_rows(warm)
    assert rows_cold[0] == CSV_HEADER
    assert rows_warm[0] == CSV_HEADER
    vol = (CSV_HEADER.index("run_id"), CSV_HEADER.index("wall_seconds"))

    def stable(rows):
        return [[c for i, c in enumerate(r) if i not in vol] for r in rows]

    assert stable(rows_warm) == stable(rows_cold)


def test_warm_bounds_plan_does_not_recompute_its_calibration(tmp_path, monkeypatch):
    calls = []
    inner = bounds.bound_values

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(bounds, "bound_values", counted)
    text = "[bounds-compare]\nx = 64\ntrials = {}\nseed = 9\n"
    path = _plan(tmp_path, text.format(4))
    cache_dir = str(tmp_path / "cache")
    cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"

    run_plan(path, out=str(cold), cache_dir=cache_dir)
    assert len(calls) == 4  # one per trial; the calibration reuses them
    calls.clear()
    run_plan(path, out=str(warm), cache_dir=cache_dir)
    assert calls == []
    vol = (CSV_HEADER.index("run_id"), CSV_HEADER.index("wall_seconds"))
    stable = [[[c for i, c in enumerate(r) if i not in vol] for r in _csv_rows(p)]
              for p in (cold, warm)]
    assert stable[0] == stable[1]

    # five trials are a new group: its calibration key misses, so the whole
    # group is computed, one bound_values call per trial
    calls.clear()
    _, records = run_plan(_plan(tmp_path, text.format(5), "five.ini"), cache_dir=cache_dir)
    assert len(calls) == 5
    _, uncached = run_plan(_plan(tmp_path, text.format(5), "five.ini"))
    assert [r.value for r in records] == [r.value for r in uncached]


def test_csv_columns_cover_every_handler_shape(tmp_path):
    text = ("[count-sweep]\nx = 3\ns = 2\n\n"
            "[restricted-sweep]\nx = 6\ns = 4\nq = 2,4\ntol = 1e-3\n\n"
            "[bounds-compare]\nx = 16\ntrials = 1\nseed = 5\n")
    out = tmp_path / "out.csv"
    status, records = run_plan(_plan(tmp_path, text), out=str(out))
    assert status == 0

    rows = _csv_rows(out)
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + len(records)
    by_op = {}
    for row in rows[1:]:
        by_op.setdefault(row[1], []).append(dict(zip(CSV_HEADER, row)))

    count = by_op["moment_count"][0]
    assert (count["X"], count["s"]) == ("3", "2")
    assert count["Q"] == "" and count["k"] == "" and count["alpha"] == ""
    assert count["exact"] == "true" and count["err_est"] == ""
    assert int(count["value"]) == counting.moment_count(3, 2)

    qs = [r["Q"] for r in by_op["restricted_moment"]]
    assert qs == ["2", "4"]
    for r in by_op["restricted_moment"]:
        assert float(r["value"]) > 0 and float(r["err_est"]) >= 0

    bv = by_op["bound_values"][0]
    assert bv["k"] == "6" and bv["alpha"].startswith("0x")
    assert len(bv["alpha"]) == 34
    assert "bound_calibration" in by_op
    assert float(by_op["bound_calibration"][0]["value"]) > 0


def test_brute_sweep_matches_count_sweep(tmp_path):
    text = "[brute-sweep]\nx = 1..8\ns = 6\n\n[count-sweep]\nx = 1..8\ns = 6\n"
    status, records = run_plan(_plan(tmp_path, text))
    assert status == 0
    brute, count = records[:8], records[8:]
    assert {r.op for r in brute} == {"brute_force_moment"}
    assert all(r.exact for r in brute)
    assert [(r.params, r.value) for r in brute] == [(r.params, r.value) for r in count]


def test_exact_count_values_parse_back_to_the_counting_integers(tmp_path):
    text = "[count-sweep]\nx = 2..12\ns = 4\n\n[vinogradov-sweep]\nx = 3,5\ns = 6\n"
    out = tmp_path / "out.csv"
    run_plan(_plan(tmp_path, text), out=str(out))
    for row in _csv_rows(out)[1:]:
        rec = dict(zip(CSV_HEADER, row))
        x, s = int(rec["X"]), int(rec["s"])
        if rec["op"] == "moment_count":
            assert int(rec["value"]) == counting.moment_count(x, s)
        else:
            assert int(rec["value"]) == counting.vinogradov_count(x, s)


def test_grid_sweep_even_is_exact_and_odd_is_estimated(tmp_path):
    status, records = run_plan(_plan(tmp_path, "[grid-sweep]\nx = 4\ns = 4\n\n"
                                               "[odd]\nkind = grid-sweep\nx = 4\ns = 3\n"))
    assert status == 0
    even, odd = records
    assert even.op == odd.op == "moment_estimate"
    assert even.exact is True
    assert float(even.value) == pytest.approx(counting.moment_count(4, 4), rel=1e-9)
    assert odd.exact is False
    assert odd.err_est is not None


def test_lemma22_identity_plan_example(tmp_path):
    # 50 seeded random angles at X=40, every two-sided check must agree
    path = _plan(tmp_path, "[lemma22-identity]\nx = 40\ntrials = 50\nseed = 7\n")
    status, records = run_plan(path)
    assert status == 0
    assert len(records) == 50
    for rec in records:
        assert rec.op == "lemma22_check"
        assert rec.err_est <= runner.IDENTITY_REL_TOL
    assert len({rec.params["alpha"] for rec in records}) == 50


def test_identity_failure_flips_exit_status(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "IDENTITY_REL_TOL", -1.0)
    path = _plan(tmp_path, "[lemma22-identity]\nx = 5\ntrials = 2\nseed = 0\n")
    status, records = run_plan(path)
    assert status == 2
    assert len(records) == 2


def test_restricted_values_do_not_depend_on_an_earlier_plan(tmp_path):
    # restricted_profile refines every cutoff onto one shared final grid, so
    # the Q = 2 value of q = 2,4 differs from that of q = 2,4,8 and must not
    # be replayed for it
    cache_dir = str(tmp_path / "cache")
    run_plan(_plan(tmp_path, "[restricted-sweep]\nx = 8\ns = 4\nq = 2,4\n", "a.ini"),
             cache_dir=cache_dir)
    path = _plan(tmp_path, "[restricted-sweep]\nx = 8\ns = 4\nq = 2,4,8\n", "b.ini")
    _, warm = run_plan(path, cache_dir=cache_dir)
    _, uncached = run_plan(path)
    assert [r.params["Q"] for r in warm] == [2, 4, 8]
    assert [r.value for r in warm] == [r.value for r in uncached]
    vals = [float(r.value) for r in warm]
    assert vals == sorted(vals, reverse=True)


def test_bounds_item_with_its_group_file_deleted_recomputes_the_group(tmp_path, monkeypatch):
    calls = []
    inner = bounds.bound_values

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(bounds, "bound_values", counted)
    path = _plan(tmp_path, "[bounds-compare]\nx = 64\ntrials = 3\nseed = 4\n")
    cache_dir = tmp_path / "cache"
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    _, records = run_plan(path, out=str(first), cache_dir=str(cache_dir))
    assert len({r.wall_seconds for r in records}) == 1  # the group's time, split evenly

    group = cache_dir / (cache_key([(r.op, r.params) for r in records]) + ".json")
    group.unlink()
    calls.clear()
    _, recomputed = run_plan(path, out=str(again), cache_dir=str(cache_dir))
    assert len(calls) == 3
    assert len({r.wall_seconds for r in recomputed}) == 1
    vol = (CSV_HEADER.index("run_id"), CSV_HEADER.index("wall_seconds"))
    stable = [[[c for i, c in enumerate(r) if i not in vol] for r in _csv_rows(p)]
              for p in (first, again)]
    assert stable[0] == stable[1]
    calls.clear()
    run_plan(path, cache_dir=str(cache_dir))
    assert calls == []

    # a group file copied over another group's file is reported, not replayed
    other = _plan(tmp_path, "[bounds-compare]\nx = 64\ntrials = 3\nseed = 5\n", "other.ini")
    _, others = run_plan(other, cache_dir=str(cache_dir))
    other_group = cache_dir / (cache_key([(r.op, r.params) for r in others]) + ".json")
    other_group.write_bytes(group.read_bytes())
    with pytest.raises(CacheCorruption, match="another group"):
        run_plan(other, cache_dir=str(cache_dir))


def test_a_plan_writes_one_cache_file_per_group(tmp_path):
    text = ("[count-sweep]\nx = 2,3,4\ns = 4\n\n"
            "[restricted-sweep]\nx = 6\ns = 4\nq = 2,4\ntol = 1e-3\n\n"
            "[bounds-compare]\nx = 16\ntrials = 2\nseed = 5\n\n"
            "[lemma22-identity]\nx = 5\ntrials = 2\nseed = 1\n")
    cache_dir = tmp_path / "cache"
    _, records = run_plan(_plan(tmp_path, text), cache_dir=str(cache_dir))
    assert len(records) == 3 + 2 + 3 + 2
    # one group per X, the restricted item, the bounds item, one per trial
    files = os.listdir(cache_dir)
    assert len(files) == 3 + 1 + 1 + 2 + 1 and "manifest.json" in files
    # the restricted group's key lists every Q, so no record repeats the list
    assert all("cutoffs" not in r.params for r in records)
