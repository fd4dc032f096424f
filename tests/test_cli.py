import json

import numpy as np
import pytest

from insdelcode.cli import _load_code, main
from insdelcode.formats import read_json, read_values, write_json, write_values
from insdelcode.gf import PrimeField
from insdelcode.hamming_ecc import rs_build
from oracles import verify_eta_reference

RS_SPEC = rs_build(PrimeField(7), 6, 2).to_json()


def run(*argv):
    return main([str(a) for a in argv])


def test_field_validate(tmp_path, capsys):
    assert run("field", "validate", "--prime", "7") == 0
    spec = json.loads(capsys.readouterr().out)
    assert spec == {"kind": "prime", "modulus": 7, "q": 7}
    assert run("field", "validate", "--prime", "9") == 2
    assert "factor 3" in capsys.readouterr().err


def test_code_build_and_roundtrip(tmp_path):
    code_file = tmp_path / "code.json"
    assert run("code", "build", "--kind", "insdel-mc", "--prime", "11",
               "--n", "10", "--m", "4", "--seed", "5", "--f", "0.34",
               "--a", "12", "--out", code_file) == 0
    msg = tmp_path / "msg.json"
    cw = tmp_path / "cw.json"
    back = tmp_path / "back.json"
    write_values(msg, [7, 3, 0, 9])
    assert run("insdel", "encode", "--code", code_file, "--in", msg,
               "--out", cw) == 0
    assert run("insdel", "decode", "--code", code_file, "--in", cw,
               "--out", back) == 0
    assert read_values(back) == [7, 3, 0, 9]

    corrupted = tmp_path / "corrupted.json"
    assert run("insdel", "corrupt", "--code", code_file, "--in", cw,
               "--ins", "1", "--del", "0", "--seed", "3",
               "--out", corrupted) == 0
    assert run("insdel", "decode", "--code", code_file, "--in", corrupted,
               "--out", back) == 0
    assert read_values(back) == [7, 3, 0, 9]


def test_decode_failure_exit_code(tmp_path, capsys):
    from insdelcode.hamming_ecc import LinearCode, rs_build
    from insdelcode.gf import PrimeField
    code_file = tmp_path / "code.json"
    run("code", "build", "--kind", "rs", "--prime", "7", "--n", "6",
        "--m", "2", "--out", code_file)
    # pick a word whose nearest codeword sits beyond the radius
    rs = rs_build(PrimeField(7), 6, 2)
    probe = LinearCode(PrimeField(7), rs.generator, rs.d)
    word_vals = None
    import itertools
    for cand in itertools.product(range(7), repeat=6):
        dists = [sum(a != b for a, b in zip(cand, cw))
                 for _, cw in probe.codewords()]
        if min(dists) > probe.kappa:
            word_vals = list(cand)
            break
    assert word_vals is not None
    word = tmp_path / "word.json"
    out = tmp_path / "out.json"
    write_values(word, word_vals)
    rc = run("insdel", "decode", "--code", code_file, "--in", word,
             "--out", out)
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_determinism(tmp_path):
    sep1 = tmp_path / "a.json"
    sep2 = tmp_path / "b.json"
    for out in (sep1, sep2):
        assert run("separator", "build", "--n", "8", "--lambda", "4",
                   "--out", out) == 0
    assert sep1.read_bytes() == sep2.read_bytes()


def test_separator_build_and_verify(tmp_path, capsys):
    sep = tmp_path / "sep.json"
    assert run("separator", "build", "--n", "8", "--lambda", "2",
               "--out", sep) == 0
    assert run("separator", "verify", "--in", sep, "--lambda", "2") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_undesired"] <= 2
    assert run("separator", "verify", "--in", sep, "--lambda", "0") in (0, 1)


def test_separator_sample_mode(tmp_path):
    sep = tmp_path / "sep.json"
    assert run("separator", "build", "--n", "12", "--sample", "--a", "5",
               "--seed", "9", "--out", sep) == 0
    data = read_json(sep)
    assert data["n"] == 12 and data["a"] == 5 and len(data["runs"]) == 12


def test_sync_build_and_verify(tmp_path, capsys):
    sync = tmp_path / "sync.json"
    assert run("sync", "build", "--n0", "12", "--eta", "0.5", "--seed", "4",
               "--out", sync) == 0
    assert run("sync", "verify", "--in", sync) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


def test_sync_verify_wide_string_follows_oracle(tmp_path, capsys):
    rng = np.random.default_rng(80)
    outcomes = set()
    for alphabet in (1 << 20, 3):
        syms = [int(v) for v in rng.integers(0, alphabet, 80)]
        spec = tmp_path / "sync.json"
        write_json(spec, {"eta": 0.3, "alphabet_size": alphabet,
                          "symbols": syms})
        ok, triple = verify_eta_reference(syms, 0.3)
        assert run("sync", "verify", "--in", spec, "--budget", 80) == \
            (0 if ok else 1)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        report = json.loads(captured.out)
        assert report["ok"] is ok
        assert report["violation"] == (None if ok else list(triple))
        outcomes.add(ok)
    assert outcomes == {True, False}


def test_affine_cli_roundtrip(tmp_path):
    from insdelcode.affine_insdel import AffineCode
    code_file = tmp_path / "affine.json"
    assert run("code", "build", "--kind", "affine", "--epsilon", "0.25",
               "--n0", "8", "--seed", "2", "--out", code_file) == 0
    code = AffineCode.from_json(read_json(code_file))
    msg = tmp_path / "msg.raw"
    cw = tmp_path / "cw.raw"
    back = tmp_path / "back.raw"
    bits = [(i * 7 + 1) % 2 for i in range(code.m)]
    write_values(msg, bits, "raw")
    assert run("affine", "encode", "--code", code_file, "--in", msg,
               "--out", cw, "--format", "raw") == 0
    corrupted = tmp_path / "corr.raw"
    assert run("affine", "corrupt", "--in", cw, "--out", corrupted,
               "--ins", "1", "--del", "1", "--seed", "5",
               "--format", "raw") == 0
    assert run("affine", "decode", "--code", code_file, "--in", corrupted,
               "--out", back, "--format", "raw") == 0
    assert read_values(back, "raw") == bits


def test_affine_params_csv(tmp_path):
    out = tmp_path / "params.csv"
    assert run("affine", "params", "--epsilons", "0.1,0.2", "--n0", "20",
               "--seed", "3", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("epsilon,")
    assert len(lines) == 3


def test_bounds_cli(tmp_path, capsys):
    assert run("bounds", "--q", "2", "--delta", "0.25") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "delta,existence,half_singleton,half_plotkin"
    row = out[1].split(",")
    assert abs(float(row[3]) - 0.25) < 1e-12
    csv_file = tmp_path / "sweep.csv"
    assert run("bounds", "--q", "4", "--sweep", "10", "--out", csv_file) == 0
    assert len(csv_file.read_text().splitlines()) == 11


def test_experiment_run(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    write_json(cfg, {"kind": "random_code_distance",
                     "field": {"kind": "prime", "modulus": 2},
                     "n": 10, "m": 3, "delta": 0.5, "trials": 30,
                     "base_seed": 0})
    assert run("experiment", "run", "--config", cfg, "--out", out) == 0
    assert out.read_text().startswith("# config: ")

    code_file = tmp_path / "code.json"
    run("code", "build", "--kind", "insdel-mc", "--prime", "11", "--n", "10",
        "--m", "4", "--seed", "5", "--f", "0.34", "--a", "12",
        "--out", code_file)
    cfg2 = tmp_path / "cfg2.json"
    out2 = tmp_path / "out2.csv"
    write_json(cfg2, {"kind": "decode_success_sweep",
                      "code_file": str(code_file), "k_max": 2,
                      "trials_per_k": 10, "base_seed": 4})
    assert run("experiment", "run", "--config", cfg2, "--out", out2) == 0


@pytest.mark.parametrize("spec", [
    {"kind": "insdel", "inner": 5},
    [1, 2],
    {"field": {"kind": "prime", "modulus": 5}, "generator": 3, "d": 1},
    {"field": {"kind": "binary", "q": 4, "modulus": 7},
     "generator": [[9, 1]], "d": 1},
    {**RS_SPEC, "n": 99, "m": 5},
    {**RS_SPEC, "kind": "bogus"},
])
def test_malformed_code_spec_exits_2(tmp_path, capsys, spec):
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(spec))
    word = tmp_path / "word.json"
    write_values(word, [1, 0])
    rc = run("insdel", "decode", "--code", code_file, "--in", word,
             "--out", tmp_path / "out.json")
    err = capsys.readouterr().err
    assert rc == 2
    assert "malformed code spec" in err and "Traceback" not in err


@pytest.mark.parametrize("edit", ["generator", "eval_points"])
def test_rs_spec_generator_off_its_points_exits_2(tmp_path, capsys, edit):
    code_file = tmp_path / "code.json"
    assert run("code", "build", "--kind", "rs", "--prime", "7", "--n", "6",
               "--m", "2", "--out", code_file) == 0
    spec = read_json(code_file)
    if edit == "generator":
        spec["generator"][1][3] = (spec["generator"][1][3] + 1) % 7
    else:
        spec["eval_points"][0], spec["eval_points"][1] = \
            spec["eval_points"][1], spec["eval_points"][0]
    write_json(code_file, spec)
    word = tmp_path / "word.json"
    write_values(word, [0] * 6)
    rc = run("insdel", "decode", "--code", code_file, "--in", word,
             "--out", tmp_path / "out.json")
    err = capsys.readouterr().err
    assert rc == 2
    assert "Vandermonde" in err and "Traceback" not in err


def test_rs_spec_off_mds_distance_exits_2(tmp_path, capsys):
    code_file = tmp_path / "code.json"
    assert run("code", "build", "--kind", "rs", "--prime", "7", "--n", "6",
               "--m", "2", "--out", code_file) == 0
    spec = read_json(code_file)
    spec["d"] = 3
    write_json(code_file, spec)
    word = tmp_path / "word.json"
    write_values(word, [0] * 6)
    rc = run("insdel", "decode", "--code", code_file, "--in", word,
             "--out", tmp_path / "out.json")
    err = capsys.readouterr().err
    assert rc == 2
    assert "n - m + 1" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def code_specs(tmp_path_factory):
    """One spec file of each kind: rs, insdel, systematic, affine."""
    root = tmp_path_factory.mktemp("specs")
    specs = {kind: root / f"{kind}.json"
             for kind in ("rs", "insdel", "systematic", "affine")}
    assert run("code", "build", "--kind", "rs", "--prime", "7", "--n", "6",
               "--m", "2", "--out", specs["rs"]) == 0
    assert run("code", "build", "--kind", "insdel-mc", "--prime", "11",
               "--n", "10", "--m", "4", "--seed", "5", "--f", "0.34",
               "--a", "12", "--out", specs["insdel"]) == 0
    assert run("code", "build", "--kind", "systematic", "--base",
               specs["insdel"], "--out", specs["systematic"]) == 0
    assert run("code", "build", "--kind", "affine", "--epsilon", "0.25",
               "--n0", "8", "--seed", "2", "--out", specs["affine"]) == 0
    return specs


@pytest.mark.parametrize("kind, q", [("rs", 7), ("insdel", 11),
                                     ("systematic", 11), ("affine", 2)])
def test_insdel_corrupt_draws_from_the_codeword_alphabet(
        tmp_path, capsys, code_specs, kind, q):
    code = _load_code(code_specs[kind])
    msg = [1] + [0] * (code.m - 1)
    cw, out = tmp_path / "cw.json", tmp_path / "out.json"
    write_values(cw, [int(v) for v in code.encode(msg)])
    assert run("insdel", "corrupt", "--code", code_specs[kind], "--in", cw,
               "--ins", "30", "--del", "1", "--seed", "3", "--out", out) == 0
    assert "Traceback" not in capsys.readouterr().err
    word = read_values(out)
    assert len(word) == code.n + 29
    assert set(word) <= set(range(q))
    assert max(word) >= min(q - 1, 2)  # 30 draws reach past the bits


@pytest.mark.parametrize("kind", ["rs", "insdel", "systematic", "affine"])
def test_insdel_decode_inverts_insdel_encode(tmp_path, code_specs, kind):
    code = _load_code(code_specs[kind])
    rng = np.random.default_rng(7)
    msg = [int(v) for v in rng.integers(0, code.q, code.m)]
    msg_file, cw, back = (tmp_path / f"{name}.json"
                          for name in ("msg", "cw", "back"))
    write_values(msg_file, msg)
    assert run("insdel", "encode", "--code", code_specs[kind],
               "--in", msg_file, "--out", cw) == 0
    assert run("insdel", "decode", "--code", code_specs[kind],
               "--in", cw, "--out", back) == 0
    assert read_values(back) == msg


def test_affine_commands_are_insdel_commands_on_bit_streams(
        tmp_path, capsys, code_specs):
    code = _load_code(code_specs["affine"])
    msg, cw, back = (tmp_path / f"{name}.raw" for name in ("msg", "cw", "back"))
    bits = [int(v) for v in np.random.default_rng(8).integers(0, 2, code.m)]
    write_values(msg, bits, "raw")
    # the code from its parameters, raw format by default
    assert run("affine", "encode", "--epsilon", "0.25", "--n0", "8",
               "--seed", "2", "--in", msg, "--out", cw) == 0
    assert read_values(cw, "raw") == [int(v) for v in code.encode(bits)]
    assert run("affine", "corrupt", "--in", cw, "--out", cw, "--ins", "1",
               "--seed", "4") == 0
    assert run("insdel", "decode", "--code", code_specs["affine"],
               "--in", cw, "--out", back, "--format", "raw") == 0
    assert read_values(back, "raw") == bits
    capsys.readouterr()
    # only affine specs, and a code one way or the other
    assert run("affine", "decode", "--code", code_specs["rs"], "--in", cw,
               "--out", back) == 2
    assert "not an affine code spec" in capsys.readouterr().err
    assert run("affine", "encode", "--n0", "8", "--in", msg,
               "--out", back) == 2
    assert "--epsilon and --n0" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["decode_success_sweep",
                                        "systematic_insdel_wrapper"])
@pytest.mark.parametrize("kind", ["rs", "systematic", "affine"])
def test_experiment_on_a_non_insdel_code_exits_2(tmp_path, capsys,
                                                 code_specs, experiment,
                                                 kind):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"kind": experiment, "code_file": str(code_specs[kind]),
                     "k_max": 1, "trials_per_k": 2, "trials": 2})
    rc = run("experiment", "run", "--config", cfg,
             "--out", tmp_path / "out.csv")
    err = capsys.readouterr().err
    assert rc == 2
    assert "insdel code spec" in err and "Traceback" not in err


@pytest.mark.parametrize("command, spec", [
    (("separator", "verify", "--in"), [1, 2]),
    (("sync", "verify", "--in"), [1, 2]),
    (("sync", "verify", "--in"),
     {"symbols": 5, "eta": 0.1, "alphabet_size": 4}),
    (("experiment", "run", "--out", "out.csv", "--config"), [1]),
    (("experiment", "run", "--out", "out.csv", "--config"),
     {"kind": "decode_success_sweep", "code_file": 5}),
])
def test_malformed_separator_sync_experiment_spec_exits_2(
        tmp_path, capsys, monkeypatch, command, spec):
    monkeypatch.chdir(tmp_path)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    rc = run(*command, spec_file)
    err = capsys.readouterr().err
    assert rc == 2
    assert "malformed" in err and "Traceback" not in err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run("insdel", "corrupt", "--in", tmp_path / "nope.json",
               "--out", tmp_path / "x.json", "--seed", "1") == 2
    capsys.readouterr()
    # missing input file also maps to a usage error, not a traceback
    assert run("insdel", "corrupt", "--q", "5", "--in", tmp_path / "nope.json",
               "--out", tmp_path / "x.json", "--seed", "1") == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("bogus")
    assert exc.value.code == 2
    capsys.readouterr()
