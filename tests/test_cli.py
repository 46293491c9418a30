import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homprod import cli, chain, css, gf2, product, stab
from homprod.chain import ChainComplex

from codes import fresh_python

REP2 = gf2.as_bin([[1, 1]])
REP3 = gf2.as_bin([[1, 1, 0], [0, 1, 1]])
CYC3 = gf2.as_bin([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


def run(*argv):
    return cli.main(list(argv))


def tree_digest(root) -> str:
    """sha256 over the sorted relative paths under root, each with its file's bytes."""
    h = hashlib.sha256()
    paths = sorted(
        os.path.relpath(os.path.join(d, f), root).replace(os.sep, "/")
        for d, _, files in os.walk(root) for f in files
    )
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(rel.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def closed_form_with_d_q(d_q, keys=("d_0", "d_-1^T")):
    """product.product_params with the distances under keys (by default
    both qubit-level ones) set to d_q."""
    real = product.product_params

    def fake(base, stages=2):
        params = real(base, stages)
        wrong = chain.Distance(d_q, "exact")
        distances = {**params.distances, **{key: wrong for key in keys}}
        return dataclasses.replace(params, distances=distances)

    return fake


@pytest.fixture()
def rep2_pcm(tmp_path):
    p = tmp_path / "rep2.pcm"
    gf2.write_pcm(p, REP2)
    return str(p)


@pytest.fixture()
def rep2_build(tmp_path, rep2_pcm):
    out = tmp_path / "rep2d"
    assert run("build", "--classical", rep2_pcm, "--stages", "2", "--out", str(out)) == 0
    return str(out)


class TestBuild:
    def test_artifacts_written(self, tmp_path, rep2_build):
        loaded = chain.load_complex(rep2_build)
        assert loaded.size(0) == 33
        stage1 = chain.load_complex(rep2_build + "/stage1")
        assert stage1.size(0) == 5
        h = gf2.read_pcm(rep2_build + "/classical.pcm")
        assert (h == REP2).all()
        with open(rep2_build + "/params.json") as fh:
            params = json.load(fh)
        assert params["computed"]["level_sizes"]["0"] == 33
        assert params["predicted_stage2"]["level_sizes"]["0"] == 33

    @pytest.mark.parametrize(
        "h, flags",
        [
            (REP2, ["--stages", "2"]),
            (CYC3, ["--stages", "1", "--allow-redundant"]),
            (CYC3, ["--stages", "2", "--allow-redundant"]),
        ],
        ids=["rep2_stage2", "cyc3_stage1", "cyc3_stage2"],
    )
    def test_predictions_are_exact(self, tmp_path, h, flags):
        pcm, out = tmp_path / "h.pcm", tmp_path / "out"
        gf2.write_pcm(pcm, h)
        assert run("build", "--classical", str(pcm), "--out", str(out), *flags) == 0
        params = json.loads((out / "params.json").read_text())
        stages = params["stages"]
        assert sorted(k for k in params if k.startswith("predicted")) == [
            f"predicted_stage{i}" for i in range(1, stages + 1)
        ]
        final = params[f"predicted_stage{stages}"]
        for key in ("level_sizes", "level_bettis", "redundancy"):
            assert final[key] == params["computed"][key], key
        for i in range(1, stages + 1):
            distances = params[f"predicted_stage{i}"]["distances"]
            assert len(distances) == 2 * (2 * i + 1)  # d_j and d_j^T, every level
            assert all(d["status"] == "exact" for d in distances.values())
        if h is CYC3 and stages == 2:
            assert final["distances"]["d_1"]["value"] == 3
            assert final["distances"]["d_-2^T"]["value"] == 3

    @pytest.mark.parametrize(
        "h, stages, digest",
        [
            (REP2, "1", "330aad491e5d6f6801dc0439cda69b357dfa3b57a8e27ac85043fcbb7f9c9054"),
            (REP2, "2", "3d5b7cb811ba841230d59b9a34fc8e8f9ac77834196fd3823ced7fd93b99547e"),
            (REP3, "1", "c736cf82aa0a28a022121a3edab0ad12313edd28fa9a5f699fc8d58be98db4f7"),
            (REP3, "2", "3bad80d392ac7be45eb700eab8bd8defdeb24a9850250480ab759af877c30488"),
        ],
        ids=["rep2_stage1", "rep2_stage2", "rep3_stage1", "rep3_stage2"],
    )
    def test_outputs_are_pinned(self, tmp_path, h, stages, digest):
        pcm, out = tmp_path / "h.pcm", tmp_path / "out"
        gf2.write_pcm(pcm, h)
        assert run(
            "build", "--classical", str(pcm), "--stages", stages, "--out", str(out), "--quiet"
        ) == 0
        assert tree_digest(out) == digest

    def test_byte_identical_reruns(self, tmp_path, rep2_pcm):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "build", "--classical", rep2_pcm, "--stages", "2", "--out", str(out),
                "--quiet",
            ) == 0
        assert (a / "params.json").read_bytes() == (b / "params.json").read_bytes()

    def test_rejects_redundant_without_flag(self, tmp_path):
        p = tmp_path / "cyc3.pcm"
        gf2.write_pcm(p, CYC3)
        assert run("build", "--classical", str(p), "--out", str(tmp_path / "x")) == 2

    def test_allow_redundant(self, tmp_path):
        p = tmp_path / "cyc3.pcm"
        gf2.write_pcm(p, CYC3)
        out = tmp_path / "cyc3d"
        code = run(
            "build", "--classical", str(p), "--out", str(out), "--allow-redundant"
        )
        assert code == 0
        assert chain.load_complex(str(out)).size(0) == 486

    def test_missing_input(self, tmp_path):
        assert run("build", "--classical", str(tmp_path / "nope.pcm"), "--out", "x") == 2

    def test_build_out_of_memory_exits_3(self, tmp_path, rep2_pcm, capsys, monkeypatch):
        # numpy reports a failed allocation as _ArrayMemoryError, a MemoryError
        from numpy._core._exceptions import _ArrayMemoryError

        def exhausted(tilde):
            raise _ArrayMemoryError((1 << 40,), np.dtype(np.uint8))

        monkeypatch.setattr(product, "double_product", exhausted)
        capsys.readouterr()
        out = tmp_path / "b"
        assert run("build", "--classical", rep2_pcm, "--stages", "2", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("memory exhausted: ") and "1.00 TiB" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "pcm", ["0 0\n", "0 3\n", "2 0\n\n\n", "1 3\n000\n"],
    ids=["0x0", "no_rows", "no_columns", "all_zero"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--stages", "1", "--allow-redundant"],
        ["build", "--stages", "2"],
        ["pipeline", "--allow-redundant"],
    ],
    ids=["build1_redundant", "build2", "pipeline_redundant"],
)
def test_rank_zero_input_is_an_input_error(tmp_path, capsys, pcm, argv):
    p = tmp_path / "h.pcm"
    p.write_text(pcm)
    capsys.readouterr()
    code = run(*argv, "--classical", str(p), "--out", str(tmp_path / "out"), "--quiet")
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and "no independent checks" in err
    assert "Traceback" not in err


def test_header_beyond_the_rows_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "h.pcm"
    p.write_text("1000000000 1000000000\n0101\n")
    capsys.readouterr()
    code = run("build", "--classical", str(p), "--out", str(tmp_path / "out"), "--quiet")
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and "expected 1000000000 rows, found 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--json", "{missing}/out.json"],
        ["build", "--classical", "{pcm}", "--out", "{file}/out"],
    ],
    ids=["table1_json_in_missing_dir", "build_out_under_a_file"],
)
def test_unwritable_output_is_an_input_error(tmp_path, capsys, rep2_pcm, argv):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    paths = {"missing": tmp_path / "missing", "pcm": rep2_pcm, "file": a_file}
    argv = [arg.format(**paths) for arg in argv]
    capsys.readouterr()
    code = run(*argv, "--quiet")
    err = capsys.readouterr().err
    assert code == 2
    assert "input error: cannot write output" in err and argv[-1] in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--complex", "c", "--t", "3", "--dq", "9", "--samples", "5"],
        ["rounds", "--complex", "c", "--schedule", "s.json"],
        ["certify", "--complex", "c", "--map", "z"],
    ],
    ids=["sweep", "rounds", "certify"],
)
def test_unknown_bound_is_a_usage_error(capsys, argv):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--f", "bogus")
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--f" in err and "bogus" in err
    assert "x^3/4" in err  # the valid names are listed
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["report"],
        ["decode", "--syndrome", "s.pcm"],
        ["sweep"],
        ["rounds", "--schedule", "schedule.json"],
    ],
    ids=["report", "decode", "sweep", "rounds"],
)
def test_non_css_complex_is_an_input_error(tmp_path, capsys, argv):
    # a stored length-1 complex: valid, but it gives no CSS code
    complex_dir = tmp_path / "rep3"
    chain.save_complex(complex_dir, ChainComplex([REP3], j_min=0))
    capsys.readouterr()
    assert run(*argv, "--complex", str(complex_dir), "--quiet") == 2
    err = capsys.readouterr().err
    assert "input error" in err and "length-2 or length-4" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["report"],
        ["sweep", "--t", "2"],
        ["rounds", "--t", "2", "--schedule", "schedule.json"],
    ],
    ids=["report", "sweep", "rounds"],
)
def test_all_zero_complex_is_an_input_error(tmp_path, capsys, argv):
    # every map zero, so n_0 = k_0: no check is independent
    complex_dir = tmp_path / "zero"
    zero = ChainComplex([gf2.zeros(2, 0), gf2.zeros(0, 2)], j_min=-1)
    chain.save_complex(complex_dir, zero)
    (tmp_path / "schedule.json").write_text(json.dumps([{"e_support": [1]}]))
    argv = [str(tmp_path / a) if a == "schedule.json" else a for a in argv]
    capsys.readouterr()
    assert run(*argv, "--complex", str(complex_dir), "--quiet") == 2
    err = capsys.readouterr().err
    assert "input error" in err and "no independent checks" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["report"],
        ["sweep", "--samples", "2"],
        ["certify", "--map", "z"],
        ["witness", "--syndrome", "s.pcm"],
        ["decode", "--syndrome", "s.pcm"],
        ["profile", "--map", "z"],
    ],
    ids=["report", "sweep", "certify", "witness", "decode", "profile"],
)
def test_classical_pcm_that_does_not_build_the_complex(tmp_path, rep2_build, capsys, argv):
    # rep-3's check matrix beside the rep-2 double product
    gf2.write_pcm(os.path.join(rep2_build, "classical.pcm"), REP3)
    gf2.write_pcm(tmp_path / "s.pcm", np.zeros((1, 40), dtype=np.uint8))
    argv = [str(tmp_path / a) if a == "s.pcm" else a for a in argv]
    capsys.readouterr()
    assert run(*argv, "--complex", rep2_build, "--quiet") == 2
    err = capsys.readouterr().err
    assert "input error" in err and "classical.pcm" in err
    assert "does not build the complex" in err
    assert "Traceback" not in err


def built(tmp_path, h):
    pcm, out = tmp_path / "h.pcm", tmp_path / "built"
    gf2.write_pcm(pcm, h)
    assert run(
        "build", "--classical", str(pcm), "--out", str(out), "--allow-redundant", "--quiet"
    ) == 0
    return str(out)


@pytest.fixture()
def rep3_build(tmp_path):
    return built(tmp_path, REP3)


class TestExactFromProvenance:
    """A complex with its classical.pcm gets d_q and d_ss in closed form,
    not a bound."""

    @pytest.mark.parametrize("h, d_ss", [(REP3, "inf"), (CYC3, 3)], ids=["rep3", "cyc3"])
    def test_report(self, tmp_path, h, d_ss):
        out = tmp_path / "report.json"
        assert run(
            "report", "--complex", built(tmp_path, h), "--max-weight", "2",
            "--json", str(out), "--quiet",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["d_q"] == {"value": 9, "status": "exact"}
        assert payload["d_ss"] == {"value": d_ss, "status": "exact"}

    def test_closed_form_d_ss_disagreement_exits_4(self, tmp_path, monkeypatch, capsys):
        complex_dir = built(tmp_path, CYC3)
        monkeypatch.setattr(
            product, "product_params", closed_form_with_d_q(2, keys=("d_1", "d_-2^T"))
        )
        capsys.readouterr()
        assert run("report", "--complex", complex_dir, "--max-weight", "3", "--quiet") == 4
        assert "closed-form d_ss 2 disagrees" in capsys.readouterr().err

    def test_sweep_budget(self, tmp_path, rep3_build):
        out = tmp_path / "sweep.json"
        assert run(
            "sweep", "--complex", rep3_build, "--samples", "3", "--max-weight", "3",
            "--json", str(out), "--quiet",
        ) == 0
        budget = json.loads(out.read_text())["budget"]
        assert budget["qubit_budget"] == 4.5 and budget["qubit_status"] == "exact"
        assert budget["measurement_budget"] == 1.5  # t = d(H) = 3

    def test_without_provenance_d_q_is_a_bound(self, tmp_path, rep3_build):
        os.remove(os.path.join(rep3_build, "classical.pcm"))
        out = tmp_path / "report.json"
        assert run(
            "report", "--complex", rep3_build, "--max-weight", "2",
            "--json", str(out), "--quiet",
        ) == 0
        assert json.loads(out.read_text())["d_q"] == {"value": 3, "status": "lower_bound"}


class TestReport:
    def test_json_round_trip(self, tmp_path, rep2_build):
        out = tmp_path / "report.json"
        assert run(
            "report", "--complex", rep2_build, "--max-weight", "4",
            "--json", str(out), "--quiet",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 33 and payload["k"] == 1
        assert payload["d_q"] == {"value": 4, "status": "exact"}
        assert payload["d_ss"] == {"value": "inf", "status": "exact"}

    def test_byte_identical_reruns(self, tmp_path, rep2_build):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run("report", "--complex", rep2_build, "--json", str(out), "--quiet")
        assert a.read_bytes() == b.read_bytes()


class TestDecode:
    def test_zero_syndrome(self, tmp_path, rep2_build):
        syn = tmp_path / "syn.pcm"
        gf2.write_pcm(syn, np.zeros((1, 40), dtype=np.uint8))
        out = tmp_path / "dec.json"
        assert run(
            "decode", "--complex", rep2_build, "--syndrome", str(syn),
            "--json", str(out), "--quiet",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["metacheck_failure"] is False
        assert payload["e_rec_x_support"] == []

    def test_single_error_decoded(self, tmp_path, rep2_build):
        complex_ = chain.load_complex(rep2_build)
        code = css.from_complex(complex_)
        err = np.zeros(33, dtype=np.uint8)
        err[7] = 1
        s = code.syndrome(css.PauliError(err, np.zeros_like(err)))
        syn = tmp_path / "syn.pcm"
        gf2.write_pcm(syn, np.concatenate([s.z_part, s.x_part]).reshape(1, -1))
        out = tmp_path / "dec.json"
        assert run(
            "decode", "--complex", rep2_build, "--syndrome", str(syn),
            "--json", str(out), "--quiet",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["e_rec_x_support"] == [8]  # 1-based

    def test_budget_exhausted_exits_3(self, tmp_path, capsys, rep2_build):
        # X on two qubits has no weight-1 recovery, so --max-weight 1 runs
        # out of budget and --max-weight 2 decodes it
        code = css.from_complex(chain.load_complex(rep2_build))
        err = np.zeros(33, dtype=np.uint8)
        err[[22, 28]] = 1
        s = code.syndrome(css.PauliError(err, np.zeros_like(err)))
        syn = tmp_path / "syn.pcm"
        gf2.write_pcm(syn, np.concatenate([s.z_part, s.x_part]).reshape(1, -1))
        argv = ["decode", "--complex", rep2_build, "--syndrome", str(syn), "--quiet"]
        capsys.readouterr()
        assert run(*argv, "--max-weight", "1") == 3
        err_text = capsys.readouterr().err
        assert err_text == "budget exhausted: no X-part recovery within weight 1\n"
        assert run(*argv, "--max-weight", "2") == 0


@pytest.fixture()
def rep2_single(tmp_path, rep2_pcm):
    out = tmp_path / "rep2s"
    assert run("build", "--classical", rep2_pcm, "--stages", "1", "--out", str(out)) == 0
    return str(out)


@pytest.mark.parametrize("command", ["sweep", "rounds", "decode"])
def test_single_product_is_an_input_error(tmp_path, capsys, rep2_single, command):
    # a length-2 complex has no metachecks to repair a syndrome with
    sched, syn = tmp_path / "sched.json", tmp_path / "syn.pcm"
    sched.write_text(json.dumps([{"e_support": [1]}]))
    gf2.write_pcm(syn, np.zeros((1, 6), dtype=np.uint8))
    extra = {
        "sweep": ["--samples", "2"],
        "rounds": ["--schedule", str(sched), "-n", "1"],
        "decode": ["--syndrome", str(syn)],
    }[command]
    capsys.readouterr()
    assert run(command, "--complex", rep2_single, *extra, "--quiet") == 2
    err = capsys.readouterr().err
    assert "input error" in err and "metachecks" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("shape", ["two_rows", "one_column"])
@pytest.mark.parametrize("command, bits", [("decode", 40), ("witness", 20)])
def test_syndrome_of_another_shape_is_an_input_error(
    tmp_path, capsys, rep2_build, command, bits, shape
):
    # as many zero bits as the code has checks (decode) or level 1 of the
    # double product has (witness), in a matrix that is not one row
    rows, cols = (2, bits // 2) if shape == "two_rows" else (bits, 1)
    syn = tmp_path / "syn.pcm"
    gf2.write_pcm(syn, gf2.zeros(rows, cols))
    argv = [command, "--complex", rep2_build, "--syndrome", str(syn), "--quiet"]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: syndrome has {bits} bits in a {rows} x {cols} matrix")
    assert f"a syndrome is a 1 x {bits} matrix" in err and "Traceback" not in err
    gf2.write_pcm(syn, gf2.zeros(1, bits))
    assert run(*argv) == 0


@pytest.mark.parametrize(
    "complex_fixture, argv, message",
    [
        ("rep2_build", ["profile", "--map", "q"], "map must be one of z, x, zt, xt"),
        ("rep2_build", ["rounds", "--schedule", "missing.json"], "cannot read schedule"),
        ("rep2_unbased", ["witness", "--syndrome", "s.pcm"], "needs classical.pcm"),
        ("rep2_single", ["witness", "--map", "z", "--syndrome", "s.pcm"], "need --map zt or xt"),
        ("rep2_build", ["decode", "--syndrome", "missing.pcm"], "cannot read syndrome"),
        ("rep2_build", ["witness", "--syndrome", "missing.pcm"], "cannot read syndrome"),
    ],
    ids=["profile_map", "rounds_unreadable", "witness_unbased", "witness_map",
         "decode_unreadable", "witness_unreadable"],
)
def test_guarded_input_is_an_input_error(
    tmp_path, capsys, request, complex_fixture, argv, message
):
    complex_dir = request.getfixturevalue(complex_fixture)
    # level 0 of the rep-2 single product: a syndrome of the right length
    gf2.write_pcm(tmp_path / "s.pcm", gf2.zeros(1, 5))
    argv = [str(tmp_path / a) if a.endswith((".json", ".pcm")) else a for a in argv]
    capsys.readouterr()
    assert run(*argv, "--complex", complex_dir, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def rep2_unbased(tmp_path_factory):
    """The rep-2 double product without classical.pcm, so that report's d_q is
    the enumeration to --max-weight: exact 4 at weight 4, a bound 3 at 2."""
    out = tmp_path_factory.mktemp("unbased") / "rep2d"
    chain.save_complex(str(out), product.double_product(product.single_product(
        ChainComplex([REP2], j_min=0)
    )))
    return str(out)


@pytest.mark.parametrize(
    "place", ["before", "after", "both_later_after", "both_later_before"]
)
def test_global_flags_go_before_or_after_the_command(tmp_path, capsys, rep2_unbased, place):
    # every global flag works on either side of the command; given on both
    # sides, the later value wins, and --quiet stays on once given
    seven = ["--seed", "7", "--max-weight", "4", "--json", str(tmp_path / "7.json"), "--quiet"]
    three = ["--seed", "3", "--max-weight", "2", "--json", str(tmp_path / "3.json")]
    before, after = {
        "before": (seven, []),
        "after": ([], seven),
        "both_later_after": (three, seven),
        "both_later_before": (seven, three),
    }[place]
    seed = int((after or before)[1])
    capsys.readouterr()
    assert run(*before, "report", "--complex", rep2_unbased, *after) == 0
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == [f"{seed}.json"]
    payload = json.loads((tmp_path / f"{seed}.json").read_text())
    assert payload["seed"] == seed
    assert payload["d_q"] == (
        {"status": "exact", "value": 4} if seed == 7 else {"status": "lower_bound", "value": 3}
    )


@pytest.mark.parametrize(
    "before, after",
    [(["--max-weight", "0"], []), ([], ["--max-weight", "0"]),
     (["--max-weight", "4"], ["--max-weight", "0"])],
    ids=["before", "after", "both"],
)
def test_max_weight_zero_is_refused_on_either_side(capsys, rep2_unbased, before, after):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(*before, "report", "--complex", rep2_unbased, *after, "--quiet")
    assert exc.value.code == 2
    assert "--max-weight" in capsys.readouterr().err


# every count flag below its floor: (command, flag, value, floor)
BELOW_FLOOR = [
    *((command, "--max-weight", weight, 1) for weight in ("0", "-2") for command in ("report", "sweep")),
    ("sweep", "--umax", "-1", 0),
    ("sweep", "--emax", "-1", 0),
    ("sweep", "--samples", "0", 1),
    ("sweep", "--samples", "-3", 1),
    ("rounds", "-n", "0", 1),
    ("rounds", "-n", "-1", 1),
    ("profile", "--xmax", "-1", 0),
    ("sweep", "--t", "0", 1),
    ("sweep", "--dq", "-3", 1),
    ("rounds", "--t", "0", 1),
    ("rounds", "--dq", "0", 1),
    ("certify", "--t", "0", 1),
    ("witness", "--t", "-1", 1),
]


@pytest.mark.parametrize(
    "command, flag, value, floor",
    BELOW_FLOOR,
    ids=[
        f"{value}-{command}" + ("" if flag == "--max-weight" else flag)
        for command, flag, value, _ in BELOW_FLOOR
    ],
)
def test_max_weight_below_one_is_a_usage_error(capsys, rep2_build, command, flag, value, floor):
    # and every other count flag below its floor: a usage error naming the flag
    required = {"rounds": ["--schedule", "unread.json"], "profile": ["--map", "z"],
                "certify": ["--map", "z"], "witness": ["--syndrome", "unread.pcm"]}.get(command, [])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(command, "--complex", rep2_build, *required, flag, value, "--quiet")
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least {floor}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["profile", "--budget", "2"], ["certify", "--xmax", "2"]],
    ids=["profile--budget", "certify--xmax"],
)
def test_second_flag_for_a_budget_or_range_is_a_usage_error(capsys, rep2_build, argv):
    # profile's preimage budget is --max-weight, and profile is the one way
    # to profile past certify's threshold
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--complex", rep2_build, "--map", "z", "--quiet")
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]} 2" in err
    assert "Traceback" not in err


# each count flag: (command, flag, floor, arguments that keep a run at any
# accepted value to milliseconds on the rep-2 double product)
COUNT_FLAGS = [
    ("report", "--max-weight", 1, []),
    ("sweep", "--umax", 0, ["--samples", "1"]),
    ("sweep", "--emax", 0, ["--samples", "1"]),
    ("sweep", "--samples", 1, []),
    ("rounds", "-n", 1, []),
    ("profile", "--xmax", 0, ["--map", "z", "--max-weight", "2"]),
    ("sweep", "--seed", 0, ["--samples", "1"]),
]


@pytest.fixture(scope="module")
def rep2_and_schedule(tmp_path_factory):
    """build --stages 2 of rep-2 and a one-round schedule, made once per module."""
    tmp = tmp_path_factory.mktemp("rep2")
    pcm, out, sched = tmp / "rep2.pcm", str(tmp / "rep2d"), tmp / "sched.json"
    gf2.write_pcm(pcm, REP2)
    assert run("build", "--classical", str(pcm), "--out", out, "--quiet") == 0
    sched.write_text(json.dumps([{"e_support": [3]}]))
    return out, str(sched)


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(COUNT_FLAGS), value=st.integers(-4, 3))
def test_count_flags_exit_0_or_a_usage_error(rep2_and_schedule, case, value):
    command, flag, floor, extra = case
    complex_dir, sched = rep2_and_schedule
    schedule = ["--schedule", sched] if command == "rounds" else []
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = run(command, "--complex", complex_dir, *schedule, *extra, flag, str(value),
                       "--quiet")
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == (value < floor)


class TestSweepAndRounds:
    def test_exhaustive_sweep(self, tmp_path, rep2_build):
        out = tmp_path / "sweep.json"
        assert run(
            "sweep", "--complex", rep2_build, "--umax", "1", "--emax", "1",
            "--json", str(out), "--quiet",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["violations"] == []
        assert payload["pairs_tested"] == 100

    def test_sampled_sweep_records_seed(self, tmp_path, rep2_build):
        out = tmp_path / "sweep.json"
        assert run(
            "--seed", "11", "sweep", "--complex", rep2_build,
            "--umax", "1", "--emax", "1", "--samples", "25",
            "--json", str(out), "--quiet",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["seed"] == 11 and payload["sampled"] is True

    @pytest.mark.parametrize("flag", ["--emax", "--umax"])
    def test_sampled_sweep_past_the_lengths(self, tmp_path, rep2_build, flag, capsys):
        # 50 exceeds both the 33 qubits and the 40 checks: such weights are
        # out of contract, so only smaller draws are decoded
        out = tmp_path / "sweep.json"
        assert run(
            "sweep", "--complex", rep2_build, flag, "50", "--samples", "5",
            "--dq", "4", "--t", "2", "--json", str(out), "--quiet",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["pairs_tested"] == 5 and payload["violations"] == []
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "h, argv, code, digest",
        [
            (REP2, ["--umax", "1", "--emax", "1", "--dq", "4", "--t", "2"], 0,
             "2f9a24f1e7edda38e2fd5c2f5f0a6669aef7c5b237c3f92c18ce22bbb2bb1b4a"),
            # a qubit budget of 6 admits pairs the decoder cannot contain:
            # four residual_bound violations
            (REP2, ["--umax", "1", "--emax", "3", "--samples", "300", "--seed", "1",
                    "--dq", "12", "--t", "2"], 4,
             "814fa46e1f9e7ab328a65f3ae178a8c0964de62c169bd7d788cb94bbb45d2d88"),
            (REP3, ["--umax", "1", "--emax", "2", "--samples", "300", "--seed", "1"], 0,
             "7663163cf080a057821f336869f6e74bf4ba7f421226c124002b2198fb8f8548"),
        ],
        ids=["d33-exhaustive", "d33-sampled-violations", "d241-sampled"],
    )
    def test_sweep_json_is_pinned(self, tmp_path, h, argv, code, digest):
        out = tmp_path / "sweep.json"
        assert run(
            "sweep", "--complex", built(tmp_path, h), *argv, "--json", str(out), "--quiet"
        ) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_rounds(self, tmp_path, rep2_build):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps([{"e_support": [3], "f_support": [], "u_support": []}]))
        out = tmp_path / "rounds.json"
        assert run(
            "rounds", "--complex", rep2_build, "--schedule", str(sched),
            "-n", "10", "--json", str(out), "--quiet",
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["rounds"]) == 10
        assert payload["in_contract_violations"] == 0

    def test_rounds241_json_is_pinned(self, tmp_path):
        # the benchmark's rounds241 run at seed 1: a one-bit measurement error,
        # then a weight-1 X error, on the rep-3 double product (241 qubits)
        complex_dir, sched, out = tmp_path / "c241", tmp_path / "s.json", tmp_path / "r.json"
        tilde = product.single_product(ChainComplex([REP3], j_min=0))
        chain.save_complex(str(complex_dir), product.double_product(tilde))
        sched.write_text(json.dumps([{"u_support": [120]}, {"e_support": [164]}]))
        assert run(
            "rounds", "--complex", str(complex_dir), "--schedule", str(sched),
            "-n", "2", "--dq", "9", "--t", "3", "--json", str(out), "--seed", "1",
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "77a1e89bb6f12da85e280e64e229b84b51f7b7243d67d6bb30c9bb589fcdeaa6"
        )

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ([{"e_support": [0]}], "e_support index 0"),
            ([{"e_support": [34]}], "e_support index 34"),
            ([5], "round 1 is not an object"),
            ([{"f_support": [True]}], "f_support index True"),
            ([{"u_support": [1]}, {"u_support": [41]}], "round 2: u_support index 41"),
            ([{"e_support": 3}], "e_support is not a list"),
            ({"e_support": [3]}, "JSON array"),
            ([{"e_suport": [1]}, {"u_support": [2]}], "round 1: unknown key 'e_suport'"),
            ([{"e_support": [1, 1]}], "round 1: e_support index 1 is given twice"),
            ([], "schedule is empty"),
        ],
    )
    def test_rounds_rejects_bad_schedule(
        self, tmp_path, rep2_build, capsys, schedule, message
    ):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(schedule))
        capsys.readouterr()
        assert run(
            "rounds", "--complex", rep2_build, "--schedule", str(sched),
            "-n", "1", "--dq", "4", "--quiet",
        ) == 2
        err = capsys.readouterr().err
        assert "input error" in err and message in err
        assert "Traceback" not in err

    def test_rounds_accepts_last_indices(self, tmp_path, rep2_build):
        # 33 qubits, 40 stacked syndrome bits: both ends are in range
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps([{"e_support": [1, 33], "u_support": [40]}]))
        out = tmp_path / "rounds.json"
        assert run(
            "rounds", "--complex", rep2_build, "--schedule", str(sched),
            "-n", "1", "--dq", "4", "--json", str(out), "--quiet",
        ) == 0
        assert len(json.loads(out.read_text())["rounds"]) == 1

    def test_rounds_over_memory_cap_exits_3(self, tmp_path, rep2_build, capsys, monkeypatch):
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", 4)
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps([{"e_support": [3]}]))
        capsys.readouterr()
        assert run(
            "rounds", "--complex", rep2_build, "--schedule", str(sched),
            "-n", "1", "--dq", "4", "--t", "2", "--quiet",
        ) == 3
        err = capsys.readouterr().err
        assert "budget exhausted" in err and "byte cap" in err
        assert "Traceback" not in err

    def test_dq_skips_distance_search(self, tmp_path, rep2_build, monkeypatch):
        real_hom, real_cohom = css.homological_distance, css.cohomological_distance

        def hom(complex_, j, *rest):
            assert j != 0, "level-0 distance search ran despite --dq"
            return real_hom(complex_, j, *rest)

        def cohom(complex_, j, *rest):
            assert j != -1, "level-0 distance search ran despite --dq"
            return real_cohom(complex_, j, *rest)

        monkeypatch.setattr(css, "homological_distance", hom)
        monkeypatch.setattr(css, "cohomological_distance", cohom)
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps([{"e_support": [3]}]))
        assert run(
            "sweep", "--complex", rep2_build, "--samples", "5", "--dq", "4", "--quiet"
        ) == 0
        assert run(
            "rounds", "--complex", rep2_build, "--schedule", str(sched),
            "-n", "2", "--dq", "4", "--quiet",
        ) == 0


class TestOneCodeReport:
    """Each command searches d_q once, through cli.Parameters, to its own
    weight: --max-weight, 3 at most in pipeline, 2 in table1; --dq skips it."""

    @pytest.fixture()
    def searches(self, monkeypatch):
        weights = []
        real = css.qubit_distance

        def counting(complex_, max_weight):
            weights.append(max_weight)
            return real(complex_, max_weight)

        monkeypatch.setattr(css, "qubit_distance", counting)
        return weights

    @pytest.mark.parametrize("dq", [[], ["--dq", "4"]])
    def test_sweep_and_rounds(self, tmp_path, rep2_build, searches, dq):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps([{"e_support": [3]}]))
        assert run("sweep", "--complex", rep2_build, "--samples", "5", *dq, "--quiet") == 0
        assert run(
            "rounds", "--complex", rep2_build, "--schedule", str(sched), "-n", "2",
            *dq, "--quiet",
        ) == 0
        default = chain.DEFAULT_DISTANCE_BUDGET
        assert searches == ([] if dq else [default, default])

    def test_pipeline(self, tmp_path, rep2_pcm, searches):
        assert run(
            "pipeline", "--classical", rep2_pcm, "--out", str(tmp_path / "p"), "--quiet"
        ) == 0
        assert searches == [3]

    def test_table1_row(self, searches):
        cli.run_table1_row("row1")
        assert searches == [2]


def test_load_stored_rebuilds_the_product_with_its_factors(rep3_build):
    complex_ = cli.load_stored(rep3_build)
    classical = gf2.read_pcm(os.path.join(rep3_build, "classical.pcm"))
    assert (complex_.factor.factor.delta(0) == classical).all()
    stored = chain.load_complex(rep3_build)
    assert all((a == b).all() for a, b in zip(complex_.boundaries, stored.boundaries))
    os.remove(os.path.join(rep3_build, "classical.pcm"))
    assert cli.load_stored(rep3_build).factor is None


class TestSoundnessCommands:
    @pytest.mark.parametrize(
        "argv", [["certify", "--map", "z"], ["witness", "--syndrome", "s.pcm"]],
        ids=["certify", "witness"],
    )
    def test_malformed_classical_is_an_input_error(self, rep2_build, capsys, argv):
        with open(os.path.join(rep2_build, "classical.pcm"), "w") as fh:
            fh.write("garbage\n")
        capsys.readouterr()
        assert run(*argv, "--complex", rep2_build, "--quiet") == 2
        err = capsys.readouterr().err
        assert "input error" in err and "classical.pcm" in err
        assert "Traceback" not in err

    def test_profile(self, tmp_path, rep2_build):
        out = tmp_path / "profile.json"
        assert run(
            "profile", "--complex", rep2_build, "--map", "z", "--xmax", "3",
            "--max-weight", "4", "--json", str(out), "--quiet",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["worst_min_preimage_by_syndrome_weight"]["0"] == 0

    def test_certify_pass_and_fail(self, tmp_path, rep2_build):
        assert run(
            "certify", "--complex", rep2_build, "--map", "z", "--f", "x3", "--quiet"
        ) == 0
        # the surface-patch direction of the stage-1 complex is unsound
        stage1 = rep2_build + "/stage1"
        gf2.write_pcm(
            tmp_path / "unused.pcm", REP2
        )
        code = run(
            "certify", "--complex", stage1, "--map", "z", "--f", "x2",
            "--t", "5", "--quiet",
        )
        assert code == 4

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["profile", "--map", "z", "--xmax", "3", "--max-weight", "4"], 0,
             "709f12ad6669a01d25a1fb3e46d8fc308936ec19fc51535aa0876a615837215b"),
            # the stage-1 complex's counterexample at syndrome weight 1
            (["certify", "--map", "z", "--f", "x2", "--t", "5"], 4,
             "e89b5bfe932f69c52dd724c66aebe4bd37fa14d8cf1733011557bd57e75cd141"),
        ],
        ids=["profile", "certify-stage1"],
    )
    def test_json_is_pinned(self, tmp_path, rep2_build, argv, code, digest):
        complex_dir = rep2_build if argv[0] == "profile" else os.path.join(rep2_build, "stage1")
        out = tmp_path / "out.json"
        assert run(*argv, "--complex", complex_dir, "--json", str(out), "--quiet") == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_witness_double(self, tmp_path, rep2_build):
        complex_ = chain.load_complex(rep2_build)
        r = np.zeros(33, dtype=np.uint8)
        r[4] = 1
        s = gf2.mat_vec(complex_.delta(0), r)
        syn = tmp_path / "syn.pcm"
        gf2.write_pcm(syn, s.reshape(1, -1))
        out = tmp_path / "witness.json"
        assert run(
            "witness", "--complex", rep2_build, "--syndrome", str(syn),
            "--json", str(out), "--quiet",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["weight"] >= 1

    def test_witness_syndrome_of_wrong_length_is_an_input_error(
        self, tmp_path, capsys, rep2_build, rep2_pcm
    ):
        single = tmp_path / "rep2s"
        assert run(
            "build", "--classical", rep2_pcm, "--stages", "1", "--out", str(single), "--quiet"
        ) == 0
        syn = tmp_path / "syn.pcm"
        gf2.write_pcm(syn, gf2.zeros(2, 6))
        for complex_dir in (rep2_build, str(single)):
            capsys.readouterr()
            assert run("witness", "--complex", complex_dir, "--syndrome", str(syn), "--quiet") == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: syndrome has 12 bits")
            assert "Traceback" not in err

    def test_witness_t_above_the_proven_threshold_is_an_input_error(
        self, tmp_path, capsys, rep3_build
    ):
        # rep-3: d(H) = 3, d(H^T) = inf.  At --t 100 this syndrome's remainder
        # terms have no preimage although they sit inside the claimed range
        breve = chain.load_complex(rep3_build)
        r = np.zeros(breve.size(0), dtype=np.uint8)
        r[[91, 158, 183]] = 1
        s = gf2.mat_vec(breve.delta(0), r)
        assert gf2.weight(s) == 10
        syn = tmp_path / "syn.pcm"
        gf2.write_pcm(syn, s.reshape(1, -1))
        argv = ["witness", "--complex", rep3_build, "--syndrome", str(syn), "--quiet"]
        capsys.readouterr()
        assert run(*argv, "--t", "100") == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: --t 100 is above the proven threshold")
        assert "min(3, inf)" in err and "Traceback" not in err
        assert run(*argv, "--t", "4") == 2
        assert run(*argv, "--t", "3") == 0

    def test_witness_single(self, tmp_path, rep2_pcm):
        out_dir = tmp_path / "rep2s"
        assert run(
            "build", "--classical", rep2_pcm, "--stages", "1", "--out", str(out_dir)
        ) == 0
        complex_ = chain.load_complex(str(out_dir))
        r = np.zeros(2, dtype=np.uint8)
        r[0] = 1
        s = gf2.mat_vec(complex_.delta(0).T, r)
        syn = tmp_path / "syn.pcm"
        gf2.write_pcm(syn, s.reshape(1, -1))
        assert run(
            "witness", "--complex", str(out_dir), "--syndrome", str(syn),
            "--map", "zt", "--quiet",
        ) == 0


class TestStabCommands:
    def test_diag_and_barrier(self, tmp_path):
        h = np.zeros((2, 3), dtype=np.uint8)
        h[0, 0] = h[0, 1] = 1
        h[1, 1] = h[1, 2] = 1
        checks = stab.SymplecticChecks.from_css(h, gf2.zeros(0, 3))
        checks_pcm = tmp_path / "checks.pcm"
        gf2.write_pcm(checks_pcm, checks.matrix)
        out = tmp_path / "diag"
        assert run("diag", "--checks", str(checks_pcm), "--out", str(out)) == 0
        gens = gf2.read_pcm(out / "generators.pcm")
        assert gens.shape == (2, 6)
        frame = json.loads((out / "frame.json").read_text())
        assert len(frame["qubit_permutation"]) == 3
        bar = tmp_path / "bar.json"
        assert run(
            "barrier", "--checks", str(checks_pcm), "--sector", "x",
            "--json", str(bar), "--quiet",
        ) == 0
        assert json.loads(bar.read_text())["barrier"] == 1

    def test_diag_certifies_up_to_the_pauli_table_limit(self, tmp_path):
        # the diagonal frame is certified linearly sound on 7 qubits; on 8
        # the brute force is out of reach and soundness is null
        for n, soundness_kind in ((7, "certified"), (8, None)):
            h = np.eye(n - 1, n, dtype=np.uint8) ^ np.eye(n - 1, n, k=1, dtype=np.uint8)
            checks = stab.SymplecticChecks.from_css(h, gf2.zeros(0, n))
            checks_pcm = tmp_path / f"checks{n}.pcm"
            gf2.write_pcm(checks_pcm, checks.matrix)
            out, report = tmp_path / f"diag{n}", tmp_path / f"diag{n}.json"
            assert run(
                "diag", "--checks", str(checks_pcm), "--out", str(out),
                "--json", str(report), "--quiet",
            ) == 0
            payload = json.loads(report.read_text())
            assert payload["generators"] == n - 1
            assert payload["soundness"] == soundness_kind

    def test_diag_rejects_non_commuting_checks(self, tmp_path, capsys):
        # X and Z on the same qubit anticommute
        p = tmp_path / "checks.pcm"
        gf2.write_pcm(p, gf2.as_bin([[1, 0, 0, 0], [0, 0, 1, 0]]))
        capsys.readouterr()
        assert run("diag", "--checks", str(p), "--out", str(tmp_path / "diag"), "--quiet") == 2
        err = capsys.readouterr().err
        assert err == "input error: check rows do not commute\n"
        assert not (tmp_path / "diag").exists()

    def test_barrier_exits_3_only_past_the_cap(self, tmp_path, capsys, monkeypatch):
        h = np.eye(8, 9, dtype=np.uint8) ^ np.eye(8, 9, k=1, dtype=np.uint8)
        p, out = tmp_path / "chain9.pcm", tmp_path / "bar.json"
        gf2.write_pcm(p, stab.SymplecticChecks.from_css(h, gf2.zeros(0, 9)).matrix)
        assert run("barrier", "--checks", str(p), "--json", str(out), "--quiet") == 0
        assert json.loads(out.read_text())["barrier"] == 1
        monkeypatch.setattr(gf2, "_TABLE_BYTES_MAX", 4 * stab._CLASS_BYTES)
        capsys.readouterr()
        assert run("barrier", "--checks", str(p), "--quiet") == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exhausted: an energy-barrier search of ")
        assert err.endswith(f"above the {4 * stab._CLASS_BYTES}-byte cap\n")


class TestTable1:
    def test_all_rows(self, tmp_path):
        out = tmp_path / "table1.json"
        assert run("table1", "--json", str(out), "--quiet") == 0
        payload = json.loads(out.read_text())
        rows = {r["input"]: r for r in payload["rows"]}
        assert rows["row1"]["computed"]["n_q"] == 241
        assert rows["row2"]["computed"]["n_q"] == 913
        assert rows["row3"]["computed"]["n_q"] == 486
        assert rows["row4"]["computed"]["n_q"] == 3856
        assert all(rows[f"row{i}"]["matches"]["mean_check_weight"] for i in (1, 2, 3, 4))
        assert "note" in rows["row3"]
        for name, d_q in (("row1", 9), ("row2", 16), ("row3", 9), ("row4", 16)):
            c = rows[name]["computed"]
            assert c["d_q"] == {"value": d_q, "status": "exact"}
            assert c["d_q_witness_upper"] == d_q

    def test_closed_form_below_floor_exits_4(self, monkeypatch, capsys):
        # each row enumerates d_q to weight 2, so the floor is 3
        monkeypatch.setattr(product, "product_params", closed_form_with_d_q(2))
        assert run("table1", "--quiet") == 4
        assert "contract violation" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(cli.TABLE1_INPUTS))
    def test_eliminates_each_map_once(self, monkeypatch, name):
        # keyed by content, so a fresh copy of a map counts as the same map;
        # the empty maps out of the end levels are never eliminated at all
        built = collections.Counter()
        real = gf2.Gf2Solver.__init__

        def counting(self, m):
            m = gf2.as_bin(m)
            built[(m.shape, m.tobytes())] += 1
            real(self, m)

        monkeypatch.setattr(gf2.Gf2Solver, "__init__", counting)
        cli.run_table1_row(name)
        assert len(built) >= 4
        assert all(shape[0] and shape[1] for shape, _ in built)
        assert max(built.values()) == 1

    def test_row4_eliminates_only_the_witness_image(self, monkeypatch):
        # the weight-2 searches find no cycle, so only the witness's in_image
        # check eliminates a 3856 x 2496 map: d_-1 of the double product
        built = collections.Counter()
        real = gf2.Gf2Solver.__init__

        def counting(self, m):
            built[gf2.as_bin(m).shape] += 1
            real(self, m)

        monkeypatch.setattr(gf2.Gf2Solver, "__init__", counting)
        cli.run_table1_row("row4")
        assert built[(3856, 2496)] == 1

    def test_witness_reuses_the_memoised_solver(self, monkeypatch):
        tilde = product.single_product(ChainComplex([REP3], j_min=0))
        breve = product.double_product(tilde)
        d_low = breve.delta(-1)
        chain.homological_distance(breve, 0, 2)
        solver = gf2.get_solver(d_low)
        builds, asked = [], []
        real_init, real_in_image = gf2.Gf2Solver.__init__, gf2.Gf2Solver.in_image

        def counting(self, m):
            builds.append(np.shares_memory(gf2.as_bin(m), d_low))
            real_init(self, m)

        def asking(self, b):
            asked.append(self)
            return real_in_image(self, b)

        monkeypatch.setattr(gf2.Gf2Solver, "__init__", counting)
        monkeypatch.setattr(gf2.Gf2Solver, "in_image", asking)
        witness = product.double_distance_witness(breve, max_weight=3)
        assert witness is not None and gf2.weight(witness) == 9
        assert not any(builds)
        assert asked[-1] is solver

    def test_deterministic_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("table1", "--json", str(out), "--quiet") == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "seed, digest",
        [
            ("1", "40246e0841f8e60f3a550404269b2e08776d1fedfd1e8e7bb2b5063e6b4f1bd4"),
            ("0", "81ca18ab8099e37b4514dec06480cd527b6c03b8c8810b1cff0337c8df16d564"),
        ],
        ids=["seed1", "seed0"],
    )
    def test_canonical_json_is_pinned(self, tmp_path, seed, digest):
        out = tmp_path / "table1.json"
        assert run("table1", "--seed", seed, "--json", str(out), "--quiet") == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_row4_scans_and_packs_no_dense_map(self, monkeypatch):
        # the product maps' supports come from the build, so nothing scans or
        # packs a dense array of a million entries or more
        dense = []
        for name in ("nonzero", "packbits"):
            real = getattr(np, name)

            def counting(a, *args, _real=real, _name=name, **kwargs):
                if np.size(a) >= 1 << 20:
                    dense.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        cli.run_table1_row("row4")
        assert dense == []


class TestPipeline:
    def test_rep2_full_pipeline(self, tmp_path, rep2_pcm):
        out = tmp_path / "pipe"
        summary = tmp_path / "summary.json"
        assert run(
            "pipeline", "--classical", rep2_pcm, "--out", str(out),
            "--json", str(summary), "--quiet",
        ) == 0
        payload = json.loads(summary.read_text())
        assert payload["code"]["n"] == 33
        assert payload["soundness_z"]["verdict"]["kind"] == "certified"
        assert payload["soundness_x"]["verdict"]["kind"] == "certified"
        assert payload["single_shot_budget"]["measurement_budget"] == 1.0
        assert payload["single_shot_budget"]["qubit_budget"] == 2.0
        assert payload["d_q_witness_upper"] == 4

    def test_outputs_are_pinned(self, tmp_path, rep2_pcm):
        out = tmp_path / "pipe"
        assert run("pipeline", "--classical", rep2_pcm, "--out", str(out), "--quiet") == 0
        assert tree_digest(out) == (
            "e27d58377601ad9b75f42c6634142ede1b2b8d1ee33c51638645ea498d6ba3d9"
        )

    def test_threshold_of_redundant_input_matches_certify(self, tmp_path):
        # d(H) = 3 but d(H^T) = 2: t is the smaller, as certify takes it
        p, out = tmp_path / "h.pcm", tmp_path / "pipe"
        gf2.write_pcm(p, gf2.as_bin([[1, 1, 0], [0, 1, 1], [0, 1, 1]]))
        summary, cert = tmp_path / "summary.json", tmp_path / "certify.json"
        assert run(
            "pipeline", "--classical", str(p), "--out", str(out), "--allow-redundant",
            "--json", str(summary), "--quiet",
        ) == 0
        assert run(
            "certify", "--complex", str(out), "--map", "z", "--f", "x3",
            "--json", str(cert), "--quiet",
        ) == 0
        payload = json.loads(summary.read_text())
        assert payload["soundness_z"]["threshold"] == 2
        assert payload["soundness_x"]["threshold"] == 2
        assert json.loads(cert.read_text())["threshold"] == 2

    def test_rejects_redundant(self, tmp_path):
        p = tmp_path / "cyc3.pcm"
        gf2.write_pcm(p, CYC3)
        assert run("pipeline", "--classical", str(p), "--out", str(tmp_path / "x")) == 2

    def test_redundant_is_an_input_error(self, tmp_path, capsys):
        p = tmp_path / "cyc3.pcm"
        gf2.write_pcm(p, CYC3)
        out = tmp_path / "x"
        capsys.readouterr()
        assert run("pipeline", "--classical", str(p), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "not minimal" in err
        assert not out.exists()

    def test_k_zero_is_an_input_error(self, tmp_path, capsys, deadline):
        # rank(H) = n: t would be infinite and certify_map would not stop
        p, out = tmp_path / "k0.pcm", tmp_path / "pipe"
        gf2.write_pcm(p, gf2.identity(2))
        capsys.readouterr()
        with deadline(30):
            assert run("pipeline", "--classical", str(p), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "k = 0" in err and "rank(H) = n = 2" in err
        assert not out.exists()

    def test_reports_exact_d_q(self, tmp_path, rep2_pcm):
        summary = tmp_path / "summary.json"
        assert run(
            "pipeline", "--classical", rep2_pcm, "--out", str(tmp_path / "pipe"),
            "--json", str(summary), "--quiet",
        ) == 0
        payload = json.loads(summary.read_text())
        assert payload["d_q"] == {"value": 4, "status": "exact"}
        assert "d_q_lower" not in payload
        assert payload["single_shot_budget"]["qubit_status"] == "exact"

    @pytest.mark.parametrize("wrong", [3, 5])
    def test_closed_form_disagreement_exits_4(
        self, tmp_path, rep2_pcm, monkeypatch, capsys, wrong
    ):
        # 3 lies below the enumeration floor (no logical up to weight 3),
        # 5 above the weight-4 witness
        monkeypatch.setattr(product, "product_params", closed_form_with_d_q(wrong))
        assert run(
            "pipeline", "--classical", rep2_pcm, "--out", str(tmp_path / "pipe"), "--quiet"
        ) == 4
        assert "contract violation" in capsys.readouterr().err


class TestCheckedDq:
    """cli.Parameters checks the closed-form d_q against its search."""

    @pytest.fixture()
    def rep2_d_q(self, monkeypatch):
        base = ChainComplex([REP2], j_min=0)
        breve = cli.build_stages(base)

        def d_q(floor):
            monkeypatch.setattr(css, "qubit_distance", lambda complex_, max_weight: floor)
            return cli.Parameters(breve, 4).d_q

        return d_q

    def test_exact_floor_must_agree(self, rep2_d_q):
        assert rep2_d_q(chain.Distance(4, "exact")).value == 4
        with pytest.raises(cli.ContractViolation):
            rep2_d_q(chain.Distance(3, "exact"))

    def test_guard_survives_optimize_flag(self):
        # the guard is an explicit raise, not an assert that -O strips
        code = (
            "from homprod import chain, cli, css, gf2\n"
            "base = chain.ChainComplex([gf2.as_bin([[1, 1]])], j_min=0)\n"
            "breve = cli.build_stages(base)\n"
            "css.qubit_distance = lambda c, w: chain.Distance(5, 'lower_bound')\n"
            "try:\n"
            "    cli.Parameters(breve, 4).d_q\n"
            "except cli.ContractViolation:\n"
            "    raise SystemExit(7)\n"
        )
        proc = fresh_python(code, "-O")
        assert proc.returncode == 7
