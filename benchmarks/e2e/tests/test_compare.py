"""compare: ratio with its base, the bound, and three verdicts."""

import json

import compare

CONTRACT = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "ops_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    ],
}
STAMP = {"nproc": 2, "python": "3", "sqlite": "3", "seconds": 8}


def _file(tmp_path, name, lat, ops):
    doc = {"stamp": STAMP, "runs": [
        {"workload": "w", "trace": 0, "metrics": {"lat_ms": a, "ops_s": b}}
        for a, b in zip(lat, ops)
    ] + [
        # A traced run's numbers must never be compared.
        {"workload": "w", "trace": 1, "metrics": {"lat_ms": 999.0}},
    ]}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.judge(steady, [10.5] * 5, "lower", 0.10)["verdict"] == "ok"
    assert compare.judge(steady, [11.5] * 5, "lower", 0.10)["verdict"] == "regressed"
    assert compare.judge(steady, [8.0] * 5, "lower", 0.10)["verdict"] == "ok"
    assert compare.judge(steady, [8.5] * 5, "higher", 0.10)["verdict"] == "regressed"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.judge(noisy, [11.5] * 5, "lower", 0.10)["verdict"] == "unresolved"


def test_exit_status_and_rows(tmp_path, capsys):
    base = _file(tmp_path, "a.json", [10.0, 10.1, 9.9], [100.0, 101.0, 99.0])
    same = _file(tmp_path, "b.json", [10.2, 10.0, 10.1], [100.5, 99.5, 100.0])
    slow = _file(tmp_path, "c.json", [12.0, 12.1, 11.9], [100.0, 101.0, 99.0])
    assert compare.main([base, same], CONTRACT) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main(["--base", base, same, "--new", slow], CONTRACT) == 1
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if "lat_ms" in line)
    assert "regressed" in row and "10%" in row and "base n=6" in row
    assert "999" not in out
