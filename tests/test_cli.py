import json
import subprocess
import sys

import numpy as np
import pytest

import framec as fc
from framec import cli

F_1234 = np.array([[1.0, 2, 3, 4], [4, 3, 2, 1]])
F_SPARSE = np.array([[1.0, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]])
H_TRIPLE = np.array([[2.0, 0], [1, 1], [3, 0]])
G_TRIPLE = np.array([[2.0, 0, 0, -0.5], [1, 1, 0, -0.5], [3, 0, 1, -1.5]])
F_COLLINEAR = np.array([[1.0, 0, -1, -2], [0, 1, -2, -4]])
H_STUCK = np.array([[1.0, 3], [2, 4]])
F_WIDE = np.array([[1.0, 0, -1, -2, 1], [0, 1, 0, 4, -2]])
H_WIDE = np.array([[1.0, 2, 1], [3, 4, 4.5]])
F_HADAMARD = np.array([[1.0, 1, 1, 0], [1, -1, 0, 1]])
H_HADAMARD = np.array([[0.5, 0.5], [0.5, -0.5]])


@pytest.fixture
def files(tmp_path):
    def put(name, m, fmt=None):
        path = tmp_path / name
        fc.write_matrix(np.asarray(m, dtype=complex)
                        if np.iscomplexobj(m) else np.asarray(m, dtype=float),
                        str(path), fmt=fmt)
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

    def test_missing_file(self, tmp_path, capsys):
        code = cli.run(["check", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,junk\n")
        assert cli.run(["check", str(path)]) == 1
        capsys.readouterr()


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

    def test_not_a_frame(self, files, capsys):
        code = cli.run(["canonical", files("f.csv", [[1.0, 1], [1, 1]])])
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
        lambda rep: rep.update(basis=5),
    ], ids=["no-dual", "non-integer-dof", "non-list-basis"])
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
