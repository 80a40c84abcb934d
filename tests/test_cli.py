import gc
import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

import framec as fc
from framec import cli
from helpers import (F_1234, F_COLLINEAR, F_HADAMARD, F_LONE, F_SPARSE,
                     F_WIDE, G_TRIPLE, H_HADAMARD, H_STUCK, H_TRIPLE, H_WIDE)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def files(tmp_path):
    def put(name, m):
        path = tmp_path / name
        fc.write_matrix(np.asarray(m, dtype=complex)
                        if np.iscomplexobj(m) else np.asarray(m, dtype=float),
                        str(path))
        return str(path)
    put.dir = tmp_path
    return put


def run_json(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


class TestCheck:
    def test_frame_report(self, files, capsys):
        code, rep, _ = run_json(
            ["check", files("f.csv", [[1.0, 1, 0, 0], [0, 0, 1, 1]])], capsys)
        assert code == 0
        assert rep["status"] == "frame"
        assert (rep["n"], rep["k"], rep["rank"]) == (2, 4, 2)
        assert abs(rep["bounds"]["lower"] - 2) <= 1e-12
        assert abs(rep["bounds"]["upper"] - 2) <= 1e-12
        assert rep["tight"] is True

    def test_loose_frame_bounds(self, files, capsys):
        fm = np.array([[1.0, 2, 1, -1, 1], [1, 1, 0, 1, 2]])
        code, rep, _ = run_json(["check", files("f.csv", fm)], capsys)
        assert code == 0
        assert rep["tight"] is False
        sv = np.linalg.svd(fm, compute_uv=False)
        assert abs(rep["bounds"]["lower"] - sv[-1] ** 2) <= 1e-9
        assert abs(rep["bounds"]["upper"] - sv[0] ** 2) <= 1e-9

    def test_rank_deficient(self, files, capsys):
        code, rep, _ = run_json(
            ["check", files("f.csv", [[1.0, 1], [1, 1]])], capsys)
        assert code == 3
        assert rep["status"] == "not_a_frame"
        assert rep["rank"] == 1

    def test_rank_is_taken_at_the_frame_tolerance(self, files, capsys):
        # sigma_min = 1e-12 is above the eps cutoff but below tol 1e-9
        path = files("f.csv", [[1.0, 0], [0, 1e-12]])
        code, rep, _ = run_json(["check", path], capsys)
        assert code == 3
        assert rep["status"] == "not_a_frame"
        assert rep["rank"] == 1
        code, rep, _ = run_json(["check", path, "--tol", "1e-13"], capsys)
        assert code == 0
        assert rep["rank"] == 2

    def test_tall_matrix(self, files, capsys):
        code, rep, _ = run_json(
            ["check", files("f.csv", [[1.0, 0], [0, 1], [0, 0]])], capsys)
        assert code == 3
        assert rep["status"] == "not_a_frame"
        assert rep["rank"] == 2

    def test_missing_file(self, tmp_path, capsys):
        code = cli.run(["check", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,junk\n")
        assert cli.run(["check", str(path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("name, text", [
        ("m.json", '{"rows": 1, "cols": 2, "data": [1%s, 2]}' % ("0" * 400)),
        ("m.json", '{"rows": 1, "cols": 1, "data": [[-1%s, 0]]}'
         % ("0" * 400)),
        ("m.csv", "1%s,2\n" % ("0" * 400)),
    ], ids=["json", "json-pair", "csv"])
    def test_integer_beyond_float_range(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert cli.run(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: matrix contains NaN or infinite entries\n"

    @pytest.mark.parametrize("name", ["m.csv", "m.json"])
    def test_input_that_is_not_utf8(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe\x00bad")
        assert cli.run(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input is not UTF-8")
        assert "Traceback" not in err


class TestCanonical:
    def test_stdout_matrix(self, files, capsys):
        code, rep, _ = run_json(["canonical", files("f.csv", F_1234)], capsys)
        assert code == 0
        got = np.array(rep["data"]).reshape(rep["rows"], rep["cols"])
        want = fc.pseudoinverse(F_1234).conj().T
        assert np.linalg.norm(got - want) <= 1e-10

    def test_output_file(self, files, capsys):
        out = str(files.dir / "g.csv")
        code = cli.run(["canonical", files("f.csv", F_1234),
                        "--output", out])
        assert code == 0
        assert cli.run(["verify", files("f2.csv", F_1234), out]) == 0
        capsys.readouterr()

    def test_ill_conditioned_output_verifies(self, files, capsys):
        # cond(F) is about 2.3e4; a solve with F F* squares it
        f = files("a.csv", [[1.0, 1, 0], [1, 1.0001, 0.0001]])
        out = str(files.dir / "g.csv")
        assert cli.run(["canonical", f, "--output", out]) == 0
        code, rep, _ = run_json(["verify", f, out], capsys)
        assert code == 0
        assert rep["residual"] <= 1e-11

    def test_not_a_frame(self, files, capsys):
        code = cli.run(["canonical", files("f.csv", [[1.0, 1], [1, 1]])])
        assert code == 3
        assert "not a frame" in capsys.readouterr().err

    def test_too_few_columns(self, files, capsys):
        code = cli.run(["canonical", files("f.csv", [[1.0, 0], [0, 1], [0, 0]])])
        assert code == 3
        assert "not a frame" in capsys.readouterr().err


class TestVerify:
    def test_accepts_true_dual(self, files, capsys):
        code, rep, _ = run_json(
            ["verify", files("f.csv", F_SPARSE), files("g.csv", G_TRIPLE)],
            capsys)
        assert code == 0
        assert rep["dual_pair"] is True
        assert rep["residual"] <= 1e-12

    def test_accepts_extension_family_member(self, files, capsys):
        f = files("f.csv", [[1.0, 2, 1, -1, 1], [1, 1, 0, 1, 2]])
        g = files("g.csv", [[-1.0, 1, -3, -2, 1], [2, -1, -3, -2, 1]])
        assert cli.run(["verify", f, g]) == 0
        capsys.readouterr()

    def test_rejects_non_dual(self, files, capsys):
        code, rep, _ = run_json(
            ["verify", files("f.csv", F_SPARSE),
             files("g.csv", G_TRIPLE + 0.01)], capsys)
        assert code == 2
        assert rep["dual_pair"] is False

    def test_wrong_shape_is_usage_level(self, files, capsys):
        code = cli.run(["verify", files("f.csv", F_SPARSE),
                        files("g.csv", np.eye(2))])
        assert code == 1
        capsys.readouterr()

    def test_rank_deficient_frame(self, files, capsys):
        code = cli.run(["verify", files("f.csv", [[1.0, 1], [1, 1]]),
                        files("g.csv", np.eye(2))])
        assert code == 3
        out = capsys.readouterr()
        assert out.out == "" and "not a frame" in out.err

    def test_too_few_columns(self, files, capsys):
        code = cli.run(["verify", files("f.csv", [[1.0, 0], [0, 1], [0, 0]]),
                        files("g.csv", np.eye(3)[:, :2])])
        assert code == 3
        assert "not a frame" in capsys.readouterr().err

    def test_env_tolerance_applies(self, files, capsys, monkeypatch):
        f = files("f.csv", [[2.0, 0, 0], [0, 2, 0]])
        g = files("g.csv", np.array([[0.5, 0, 0], [0, 0.5, 0]]) + 0.05)
        assert cli.run(["verify", f, g]) == 2
        capsys.readouterr()
        monkeypatch.setenv("FRAMEC_TOL", "0.5")
        code, rep, _ = run_json(["verify", f, g], capsys)
        assert code == 0
        assert rep["tol"] == 0.5
        # explicit --tol wins over the environment
        assert cli.run(["verify", f, g, "--tol", "1e-6"]) == 2
        capsys.readouterr()

    def test_env_tolerance_malformed(self, files, capsys, monkeypatch):
        monkeypatch.setenv("FRAMEC_TOL", "half")
        code = cli.run(["verify", files("f.csv", F_SPARSE),
                        files("g.csv", G_TRIPLE)])
        assert code == 1
        assert "usage error" in capsys.readouterr().err


class TestTolerance:
    # a completable problem: column 1 of the dual prescribed as e1
    @pytest.fixture
    def problem(self, files):
        return [files("f.csv", [[1.0, 0, 1], [0, 1, 1]]),
                files("h.csv", [[1.0], [0.0]]), "--indices", "2"]

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_flag_must_be_finite_positive(self, problem, tol, capsys):
        assert cli.run(["complete", *problem, "--tol", tol]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_env_must_be_finite_positive(self, problem, tol, capsys,
                                         monkeypatch):
        monkeypatch.setenv("FRAMEC_TOL", tol)
        assert cli.run(["complete", *problem]) == 1
        assert "FRAMEC_TOL" in capsys.readouterr().err

    def test_positive_tolerance_completes(self, problem, capsys,
                                          monkeypatch):
        monkeypatch.setenv("FRAMEC_TOL", "1e-8")
        code, rep, _ = run_json(["complete", *problem], capsys)
        assert code == 0
        assert rep["status"] == "unique"


class TestComplete:
    def test_family_report(self, files, capsys):
        code, rep, _ = run_json(
            ["complete", files("f.csv", F_1234),
             files("h.csv", [[1.0], [0.0]])], capsys)
        assert code == 0
        assert rep["status"] == "family"
        assert rep["method"] == "all"
        assert rep["dof"] == 2
        assert len(rep["basis"]) == 2
        assert rep["residual"] <= 1e-9

    def test_pivot_below_tol_on_a_frame(self, files, capsys):
        # sigma_min = 1.8e-9 clears tol 1e-9; the product route's second
        # pivot, 9e-10, does not
        eps = 9e-10
        f = files("f.csv", [[1.0, 0, 0, 0, 0], [0, eps, eps, eps, eps]])
        h = files("h.csv", [[1.0], [0.0]])
        code, rep, _ = run_json(["complete", f, h], capsys)
        assert code == 0
        assert (rep["status"], rep["dof"]) == ("family", 6)
        out = str(files.dir / "g.csv")
        assert cli.run(["complete", f, h, "--method", "product",
                        "--output", out]) == 0
        assert cli.run(["verify", f, out]) == 0
        capsys.readouterr()

    def test_report_is_compact_and_exact(self, files, capsys):
        cli.run(["complete", files("f.csv", F_1234),
                 files("h.csv", [[1.0], [0.0]])])
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and ": " in out and "\n " not in out
        rep = json.loads(out)
        fam = fc.complete_direct(fc.make_frame(F_1234),
                                 fc.PartialDual(np.array([[1.0], [0.0]])))
        dual = np.array(rep["dual"]["data"]).reshape(2, 4)
        assert np.array_equal(dual, fam.family.particular)
        # a complex family: the encoder without its cycle check writes
        # what the default encoder writes
        fm = np.array([[1.0, 0, 1j, 0], [0, 1, 0, 1 + 1j]])
        h = fc.canonical_dual(fc.make_frame(fm))[:, [0]]
        cli.run(["complete", files("f.json", fm), files("h.json", h)])
        out = capsys.readouterr().out
        rep = json.loads(out)
        assert rep["status"] == "family" and rep["dof"] == len(rep["basis"])
        assert json.dumps(rep) + "\n" == out
        fam = fc.complete_direct(fc.make_frame(fm), fc.PartialDual(h))
        dual = fc.matio.matrix_from_jsonable(rep["dual"])
        assert np.array_equal(dual, fam.family.particular)

    def test_wide_family_dof(self, files, capsys):
        code, rep, _ = run_json(
            ["complete", files("f.csv", F_WIDE), files("h.csv", H_WIDE),
             "--indices", "1,2,3"], capsys)
        assert code == 0
        assert rep["status"] == "family"
        assert rep["dof"] == 2

    def test_report_fields_track_status(self, files, capsys):
        _, fam, _ = run_json(
            ["complete", files("f.csv", F_1234),
             files("h.csv", [[1.0], [0.0]])], capsys)
        assert {"dual", "basis", "dof"} <= fam.keys()
        assert "certificate" not in fam
        _, unq, _ = run_json(
            ["complete", files("f2.csv", F_SPARSE),
             files("h2.csv", H_TRIPLE), "--indices", "1,2"], capsys)
        assert "dual" in unq
        assert not {"basis", "dof", "certificate"} & unq.keys()
        _, none, _ = run_json(
            ["complete", files("f3.csv", F_COLLINEAR),
             files("h3.csv", H_STUCK)], capsys)
        assert "certificate" in none
        assert not {"dual", "basis", "dof"} & none.keys()

    def test_unique_with_indices(self, files, capsys):
        code, rep, _ = run_json(
            ["complete", files("f.csv", F_SPARSE), files("h.csv", H_TRIPLE),
             "--indices", "1,2"], capsys)
        assert code == 0
        assert rep["status"] == "unique"
        got = np.array(rep["dual"]["data"]).reshape(3, 4)
        assert np.linalg.norm(got - G_TRIPLE) <= 1e-9

    def test_single_method_selection(self, files, capsys):
        for method in ("direct", "product", "svd"):
            code, rep, _ = run_json(
                ["complete", files("f.csv", F_SPARSE),
                 files("h.csv", H_TRIPLE), "--method", method], capsys)
            assert code == 0
            assert rep["method"] == method
            got = np.array(rep["dual"]["data"]).reshape(3, 4)
            assert np.linalg.norm(got - G_TRIPLE) <= 1e-8

    @pytest.mark.parametrize("index", ["2", "3"])
    @pytest.mark.parametrize("method", ["direct", "product", "svd"])
    def test_interior_family_output_verifies(self, files, method, index,
                                             capsys):
        # each route realizes the family in its own coordinates; the
        # dual it writes must carry H at the interior position asked for
        col = [int(index) - 1]
        h = H_WIDE[:, col]
        out = str(files.dir / "dual.csv")
        code, rep, err = run_json(
            ["complete", files("f.csv", F_WIDE), files("h.csv", h),
             "--indices", index, "--method", method, "--output", out],
            capsys)
        assert code == 0, err
        assert (rep["status"], rep["method"]) == ("family", method)
        assert cli.run(["verify", files("f2.csv", F_WIDE), out]) == 0
        capsys.readouterr()
        g = fc.read_matrix(out)
        assert np.linalg.norm(g[:, col] - h) <= 1e-12

    def test_noise_block_still_frees_everything(self, files, capsys):
        # at positions 2 and 3 of F_SPARSE the svd route's V*_bl is
        # rounding noise; every route must agree on the full family
        code, rep, err = run_json(
            ["complete", files("f.csv", F_SPARSE),
             files("h.csv", [[0.0, 0], [1, 0], [0, 1]]), "--indices", "2,3"],
            capsys)
        assert code == 0, err
        assert rep["status"] == "family"
        assert rep["dof"] == 3

    def test_independent_vector_alone_frees_everything(self, files,
                                                       capsys):
        # the first vector of F_LONE is independent of the others: the
        # product route's P holds rounding at that column, not zero
        f = files("f.csv", F_LONE)
        g = str(files.dir / "g.csv")
        assert cli.run(["canonical", f, "--output", g]) == 0
        h = files("h.csv", fc.read_matrix(g)[:, :1])
        capsys.readouterr()
        for method in ("all", "direct", "product", "svd"):
            code, rep, err = run_json(
                ["complete", f, h, "--indices", "1", "--method", method],
                capsys)
            assert code == 0, err
            assert (rep["status"], rep["dof"]) == ("family", 4)

    def test_no_completion(self, files, capsys):
        code, rep, _ = run_json(
            ["complete", files("f.csv", F_COLLINEAR),
             files("h.csv", H_STUCK)], capsys)
        assert code == 2
        assert rep["status"] == "none"
        assert rep["certificate"]["rank_free"] == 1
        assert rep["certificate"]["rank_augmented"] == 2
        assert rep["residual"] > 1e-6

    def test_not_a_frame(self, files, capsys):
        code, rep, _ = run_json(
            ["complete", files("f.csv", [[1.0, 1], [1, 1]]),
             files("h.csv", [[1.0], [0.0]])], capsys)
        assert code == 3
        assert rep["status"] == "not_a_frame"

    def test_bad_indices(self, files, capsys):
        f = files("f.csv", F_SPARSE)
        h = files("h.csv", H_TRIPLE)
        for spec in ("1,1", "0,2", "1,9", "1", "x,y"):
            assert cli.run(["complete", f, h, "--indices", spec]) == 1
            capsys.readouterr()

    def test_output_written_and_verifies(self, files, capsys):
        out = str(files.dir / "dual.csv")
        code = cli.run(["complete", files("f.csv", F_1234),
                        files("h.csv", [[1.0], [0.0]]), "--output", out])
        assert code == 0
        capsys.readouterr()
        assert cli.run(["verify", files("f2.csv", F_1234), out]) == 0
        capsys.readouterr()

    def test_method_disagreement_exits_4(self, files, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "complete_via_svd",
            lambda fr, pd: fc.Unique(np.zeros((fr.n, fr.k))))
        code = cli.run(["complete", files("f.csv", F_SPARSE),
                        files("h.csv", H_TRIPLE), "--indices", "1,2"])
        assert code == 4
        assert "disagreement" in capsys.readouterr().err

    def test_a_single_method_answers_alone(self, files, capsys, monkeypatch):
        # the replaced svd route would disagree, but only direct runs
        monkeypatch.setattr(
            cli, "complete_via_svd",
            lambda fr, pd: fc.Unique(np.zeros((fr.n, fr.k))))
        code, rep, err = run_json(
            ["complete", files("f.csv", F_SPARSE), files("h.csv", H_TRIPLE),
             "--indices", "1,2", "--method", "direct"], capsys)
        assert (code, err) == (0, "")
        assert (rep["method"], rep["status"]) == ("direct", "unique")

    def test_more_columns_than_frame_vectors(self, files, capsys):
        code = cli.run(["complete", files("f.csv", F_SPARSE),
                        files("h.csv", np.ones((3, 5)))])
        out = capsys.readouterr()
        assert (code, out.out) == (1, "")
        assert "5 prescribed columns but the frame has 4 vectors" in out.err

    def test_verdict_disagreement_names_the_verdicts(self, files, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(
            cli, "complete_via_product",
            lambda fr, pd: fc.NoCompletion(fc.Certificate(1, 2, 1.0)))
        code = cli.run(["complete", files("f.csv", F_SPARSE),
                        files("h.csv", H_TRIPLE), "--indices", "1,2"])
        assert code == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert "verdicts differ" in out.err
        assert "'product': 'NoCompletion'" in out.err
        assert "'direct': 'Unique'" in out.err

    def test_dof_disagreement_names_the_dof(self, files, capsys,
                                            monkeypatch):
        # prescribing three columns of F_WIDE leaves a family of dof 2
        smaller = fc.complete_direct(fc.make_frame(F_WIDE),
                                     fc.PartialDual(H_WIDE, (0, 1, 2)))
        monkeypatch.setattr(cli, "complete_via_svd", lambda fr, pd: smaller)
        code = cli.run(["complete", files("f.csv", F_WIDE),
                        files("h.csv", H_WIDE[:, :1])])
        assert code == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert "family dof differ" in out.err
        assert "'direct': 4" in out.err and "'svd': 2" in out.err


class TestCompleteWeights:
    def test_explicit_weights(self, files, capsys):
        code, rep, _ = run_json(
            ["complete", files("f.csv", F_COLLINEAR),
             files("h.csv", H_STUCK),
             "--weights", files("w.csv", [[-2.75, -2.5]])], capsys)
        assert code == 0
        assert rep["status"] == "family"
        assert rep["weights"] == [-2.75, -2.5]

    def test_complex_weight_is_refused(self, files, capsys):
        code, rep, err = run_json(
            ["complete", files("f.csv", F_COLLINEAR),
             files("h.csv", H_STUCK),
             "--weights", files("w.json", [[2 + 1j, 1]])], capsys)
        assert code == 1
        assert rep is None
        assert "real" in err

    def test_solved_weights(self, files, capsys):
        code, rep, _ = run_json(
            ["complete", files("f.csv", F_COLLINEAR),
             files("h.csv", H_STUCK), "--solve-weights"], capsys)
        assert code == 0
        assert rep["status"] == "family"
        assert np.allclose(rep["weights"], [-2.75, -2.5])
        got = np.array(rep["dual"]["data"]).reshape(2, 4)
        assert np.allclose(got[:, :2], H_STUCK * np.array([-2.75, -2.5]))

    def test_unsolvable_weights_fall_back(self, files, capsys):
        code, rep, _ = run_json(
            ["complete", files("f.csv", F_COLLINEAR),
             files("h.csv", [[1.0, 1], [0, 0]]), "--solve-weights"], capsys)
        assert code == 2
        assert rep["status"] == "none"
        assert "weights" not in rep
        assert any("scaling" in note for note in rep["errata_notes"])

    @pytest.mark.parametrize("method", ["direct", "product", "svd", "all"])
    def test_zero_weight_same_dual_on_every_method(self, files, capsys,
                                                   method):
        code, rep, _ = run_json(
            ["complete", files("f.csv", F_HADAMARD),
             files("h.csv", H_HADAMARD),
             "--weights", files("w.csv", [[0.0, 2.0]]),
             "--method", method], capsys)
        assert code == 0
        assert rep["status"] == "unique"
        got = np.array(rep["dual"]["data"]).reshape(2, 4)
        want = np.array([[0.0, 1, 0, 1], [0, -1, 1, 0]])
        assert np.linalg.norm(got - want) <= 1e-12

    def test_weights_follow_partial_columns(self, files, capsys):
        # column j of the partial file sits at the j-th listed index
        code, rep, _ = run_json(
            ["complete", files("f.csv", F_HADAMARD),
             files("h.csv", [[1.0, 0], [0, 1]]), "--indices", "3,1",
             "--weights", files("w.csv", [[1.0, 2.0]])], capsys)
        assert code == 0
        got = np.array(rep["dual"]["data"]).reshape(2, 4)
        assert np.allclose(got[:, 2], [1.0, 0])
        assert np.allclose(got[:, 0], [0, 2.0])
        assert rep["weights"] == [2.0, 1.0]

    def test_weight_count_mismatch(self, files, capsys):
        code = cli.run(["complete", files("f.csv", F_COLLINEAR),
                        files("h.csv", H_STUCK),
                        "--weights", files("w.csv", [[2.0, 2, 2]])])
        assert code == 1
        capsys.readouterr()

    def test_flags_mutually_exclusive(self, files, capsys):
        code = cli.run(["complete", files("f.csv", F_COLLINEAR),
                        files("h.csv", H_STUCK), "--solve-weights",
                        "--weights", files("w.csv", [[1.0, 1]])])
        assert code == 1
        assert "usage error" in capsys.readouterr().err


def spelled_out_report(method, fr, fam, weights=None):
    """A family report's bytes with every basis matrix built and encoded."""
    rep = {"method": method, "errata_notes": []}
    if weights is not None:
        rep["weights"] = list(weights)
    to_json = fc.matio.matrix_to_jsonable
    rep.update(status="family", dual=to_json(fam.particular),
               basis=[to_json(b) for b in fam.basis], dof=fam.dof,
               residual=fc.dual_residual(fr, fam.particular))
    return json.dumps(rep, check_circular=False) + "\n"


class TestFamilyReportBytes:
    ROUTE = {"direct": fc.complete_direct, "product": fc.complete_via_product,
             "svd": fc.complete_via_svd, "all": fc.complete_direct}

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("method", ["direct", "product", "svd", "all"])
    def test_report_is_the_spelled_out_one(self, files, capsys, method,
                                           field, weighted):
        # the product route's directions are not orthonormal rows
        rng = np.random.default_rng(4021)
        fm = rng.standard_normal((3, 8)).astype(field)
        if field is complex:
            fm += 1j * rng.standard_normal((3, 8))
        w = [0.5, -1.25]
        h = fc.canonical_dual(fc.make_frame(fm))[:, [1, 4]]
        ext = "json" if field is complex else "csv"
        argv = ["complete", files(f"f.{ext}", fm),
                files(f"h.{ext}", h / w if weighted else h),
                "--indices", "2,5", "--method", method]
        if weighted:
            argv += ["--weights", files("w.csv", [w])]
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        fr = fc.make_frame(fc.read_matrix(argv[1]))
        pd = fc.PartialDual(fc.read_matrix(argv[2]), (1, 4))
        if weighted:
            pd = pd.scaled(w)
        fam = self.ROUTE[method](fr, pd).family
        assert fam.dof == 9
        assert out == spelled_out_report(method, fr, fam,
                                         w if weighted else None)

    @pytest.mark.parametrize("field", [float, complex])
    def test_edge_floats_keep_their_repr(self, files, capsys, monkeypatch,
                                         field):
        fr = fc.make_frame(F_1234)
        w = np.array([[-0.0, 5e-324, 1e308, 1 / 3],
                      [1 / 3, -1e-300, 2.5e-310, -1e308]], dtype=field)
        if field is complex:
            w = w + 1j * w[::-1]
        fam = fc.SolutionFamily(fr, fc.canonical_dual(fr).astype(field), w,
                                fc.PartialDual(np.array([[1.0], [0.0]])))
        monkeypatch.setattr(cli, "complete_direct",
                            lambda fr, pd: fc.Family(fam))
        assert cli.run(["complete", files("f.csv", F_1234),
                        files("h.csv", [[1.0], [0.0]]),
                        "--method", "direct"]) == 0
        out = capsys.readouterr().out
        if field is float:
            assert "[-0.0, 5e-324, 1e+308, 0.3333333333333333, 0.0, " in out
        assert out == spelled_out_report("direct", fr, fam)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_direction_is_an_error(self, files, capsys,
                                              monkeypatch, bad):
        fr = fc.make_frame(F_1234)
        w = np.array([[0.0, 1.0, bad, 0.0]])
        fam = fc.SolutionFamily(fr, fc.canonical_dual(fr), w,
                                fc.PartialDual(np.array([[1.0], [0.0]])))
        monkeypatch.setattr(cli, "complete_direct",
                            lambda fr, pd: fc.Family(fam))
        assert cli.run(["complete", files("f.csv", F_1234),
                        files("h.csv", [[1.0], [0.0]]),
                        "--method", "direct"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "NaN or infinite" in out.err

    def test_no_basis_matrix_is_built(self, files, capsys, monkeypatch):
        def refuse(self, j):
            raise AssertionError("a basis matrix was built")

        monkeypatch.setattr(fc.frames.FamilyBasis, "__getitem__", refuse)
        fm = np.array([[1.0, 0, 1j, 0, 1], [0, 1, 0, 1 + 1j, 2j]])
        h = fc.canonical_dual(fc.make_frame(fm))[:, [0]]
        code, rep, err = run_json(
            ["complete", files("f.json", fm), files("h.json", h)], capsys)
        assert code == 0, err
        assert rep["dof"] == len(rep["basis"]) == 4
        g = fc.matio.matrix_from_jsonable(rep["basis"][3])
        assert np.count_nonzero(np.abs(g).sum(axis=1)) == 1


class TestSample:
    def complete_family(self, files, capsys):
        rep_path = files.dir / "rep.json"
        code, rep, _ = run_json(
            ["complete", files("f.csv", F_1234),
             files("h.csv", [[1.0], [0.0]])], capsys)
        assert code == 0
        rep_path.write_text(json.dumps(rep))
        return str(rep_path)

    def test_deterministic_and_seed_sensitive(self, files, capsys):
        rep = self.complete_family(files, capsys)
        code, first, _ = run_json(["sample", rep, "--seed", "7"], capsys)
        assert code == 0
        _, again, _ = run_json(["sample", rep, "--seed", "7"], capsys)
        assert first == again
        _, other, _ = run_json(["sample", rep, "--seed", "8"], capsys)
        assert first != other

    def test_sampled_member_verifies(self, files, capsys):
        rep = self.complete_family(files, capsys)
        out = str(files.dir / "member.csv")
        assert cli.run(["sample", rep, "--seed", "3",
                        "--output", out]) == 0
        capsys.readouterr()
        assert cli.run(["verify", files("f2.csv", F_1234), out]) == 0
        capsys.readouterr()
        member = fc.read_matrix(out)
        assert np.allclose(member[:, 0], [1.0, 0.0])

    def test_member_is_dual_plus_combination_of_basis(self, files, capsys):
        rep_path = self.complete_family(files, capsys)
        rep = json.loads(open(rep_path).read())
        _, member, _ = run_json(["sample", rep_path, "--seed", "11"], capsys)
        coeff = np.random.default_rng(11).uniform(-1.0, 1.0, rep["dof"])
        want = fc.matio.matrix_from_jsonable(rep["dual"]) + sum(
            c * fc.matio.matrix_from_jsonable(b)
            for c, b in zip(coeff, rep["basis"]))
        got = fc.matio.matrix_from_jsonable(member)
        assert np.allclose(got, want, atol=1e-12)

    def test_rejects_non_family_report(self, files, capsys):
        rep_path = files.dir / "rep.json"
        code, rep, _ = run_json(
            ["complete", files("f.csv", F_SPARSE), files("h.csv", H_TRIPLE),
             "--indices", "1,2"], capsys)
        assert rep["status"] == "unique"
        rep_path.write_text(json.dumps(rep))
        assert cli.run(["sample", str(rep_path)]) == 1
        assert "family" in capsys.readouterr().err

    def test_rejects_report_that_is_not_an_object(self, files, capsys):
        bad = files.dir / "list.json"
        bad.write_text("[1, 2]")
        assert cli.run(["sample", str(bad)]) == 1
        assert "family" in capsys.readouterr().err

    def test_report_that_is_not_json_is_usage_error(self, files, capsys):
        bad = files.dir / "rep.json"
        bad.write_text("status: family\n")
        assert cli.run(["sample", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("usage error")

    def test_rejects_inconsistent_report(self, files, capsys):
        rep = json.loads(open(self.complete_family(files, capsys)).read())
        rep["dof"] = 5
        bad = files.dir / "bad.json"
        bad.write_text(json.dumps(rep))
        assert cli.run(["sample", str(bad)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("edit", [
        lambda rep: rep.pop("dual"),
        lambda rep: rep.update(dof="x"),
        # int() of these dofs matches the number of basis matrices
        lambda rep: rep.update(dof=2.5),
        lambda rep: rep.update(dof=True, basis=rep["basis"][:1]),
        lambda rep: rep.update(basis=5),
        lambda rep: rep["basis"].__setitem__(
            0, {"rows": 1, "cols": 1, "data": [0.0]}),
    ], ids=["no-dual", "non-integer-dof", "float-dof", "bool-dof",
            "non-list-basis", "basis-shape"])
    def test_malformed_family_report_is_usage_error(self, files, capsys,
                                                    edit):
        rep = json.loads(open(self.complete_family(files, capsys)).read())
        edit(rep)
        bad = files.dir / "bad.json"
        bad.write_text(json.dumps(rep))
        assert cli.run(["sample", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload", [
        b"\xff\xfe\x00bad",
        pytest.param(b'{"status": "family", "dof": 1%s}' % (b"0" * 5000),
                     marks=pytest.mark.skipif(
                         not hasattr(sys, "get_int_max_str_digits"),
                         reason="this Python reads integers of any length")),
    ], ids=["not-utf8", "integer-too-long"])
    def test_unreadable_report_is_usage_error(self, files, capsys, payload):
        bad = files.dir / "rep.json"
        bad.write_bytes(payload)
        assert cli.run(["sample", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: invalid report JSON")
        assert "Traceback" not in err

    def test_integer_beyond_float_range_in_report(self, files, capsys):
        rep = json.loads(open(self.complete_family(files, capsys)).read())
        rep["dual"]["data"][0] = 10 ** 400  # written as a JSON integer
        bad = files.dir / "bad.json"
        bad.write_text(json.dumps(rep))
        assert cli.run(["sample", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == "error: matrix contains NaN or infinite entries\n"

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_a_non_negative_integer(self, files, capsys, seed):
        rep = self.complete_family(files, capsys)
        assert cli.run(["sample", rep, "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "--seed" in err
        assert "Traceback" not in err


class TestComplexRoundTrip:
    def test_complete_sample_verify(self, files, capsys):
        fm = np.array([[1.0, 0, 1j, 0], [0, 1, 0, 1 + 1j]])
        fr = fc.make_frame(fm)
        h = fc.canonical_dual(fr)[:, [0]]
        f = files("f.json", fm)
        code, rep, _ = run_json(
            ["complete", f, files("h.json", h)], capsys)
        assert code == 0
        assert rep["status"] == "family"
        rep_path = files.dir / "rep.json"
        rep_path.write_text(json.dumps(rep))
        out = str(files.dir / "member.json")
        assert cli.run(["sample", str(rep_path), "--seed", "5",
                        "--output", out]) == 0
        capsys.readouterr()
        assert cli.run(["verify", f, out]) == 0
        capsys.readouterr()

    def test_failed_output_prints_no_report(self, files, capsys):
        # a unique complex dual cannot be written to a CSV file: the call
        # fails as a whole, with nothing on stdout
        fm = np.array([[1.0, 0, 1j, 0], [0, 1, 0, 1 + 1j]])
        h = fc.canonical_dual(fc.make_frame(fm))[:, :3]
        out = str(files.dir / "g.csv")
        code = cli.run(["complete", files("f.json", fm),
                        files("h.json", h), "--output", out])
        assert code == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert "complex matrix cannot be written as CSV" in got.err


class TestCollectorPause:
    def test_family_round_trip_runs_no_collection(self, files, capsys):
        # a complex family report of 54 basis matrices: thousands of
        # [re, im] lists, enough to start the collector many times over
        rng = np.random.default_rng(6183)
        fm = rng.standard_normal((6, 18)) + 1j * rng.standard_normal((6, 18))
        h = fc.canonical_dual(fc.make_frame(fm))[:, :3]
        argv = ["complete", files("f.json", fm), files("h.json", h)]
        phases = []

        def count(phase, info):
            phases.append(phase)

        gc.callbacks.append(count)
        try:
            assert cli.run(argv) == 0
            rep_path = files.dir / "rep.json"
            rep_path.write_text(capsys.readouterr().out)
            assert cli.run(["sample", str(rep_path)]) == 0
        finally:
            gc.callbacks.remove(count)
        assert json.loads(rep_path.read_text())["dof"] == 54
        assert json.loads(capsys.readouterr().out)["rows"] == 6
        assert phases == []

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_caller_state_is_restored(self, files, capsys, enabled):
        calls = [(["check", files("f.csv", F_1234)], 0),
                 (["check", str(files.dir / "nope.csv")], 1),
                 (["check", files("r.csv", [[1.0, 1], [1, 1]])], 3)]
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv, code in calls:
                assert cli.run(argv) == code
                assert gc.isenabled() is enabled
            with pytest.raises(SystemExit):
                cli.run(["--help"])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        capsys.readouterr()


def test_no_arguments_is_usage_error(capsys):
    assert cli.run([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    path = tmp_path / "f.csv"
    fc.write_matrix(F_1234, str(path))
    proc = subprocess.run([sys.executable, "-m", "framec", "check", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "frame"


def test_the_workflow_console_script_step_runs(tmp_path):
    # the workflow's "Installed console script" step, less its install
    # line, with `framec` a shim that runs this checkout's package
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"),
              encoding="utf-8") as fh:
        steps = yaml.safe_load(fh)["jobs"]["tests"]["steps"]
    (step,) = [s for s in steps if s.get("name") == "Installed console script"]
    lines = step["run"].splitlines()
    assert "python -m pip install ." in lines
    script = tmp_path / "step.sh"
    script.write_text("\n".join(
        line for line in lines if line != "python -m pip install .") + "\n")
    bindir, runner = tmp_path / "bin", tmp_path / "runner"
    bindir.mkdir()
    runner.mkdir()
    src = os.path.join(ROOT, "src")
    shim = bindir / "framec"
    shim.write_text(
        "#!/bin/sh\n"
        f'PYTHONPATH={shlex.quote(src)}${{PYTHONPATH:+:$PYTHONPATH}} '
        f'exec {shlex.quote(sys.executable)} -m framec "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, RUNNER_TEMP=str(runner),
               PATH=f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail",
                           str(script)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
