"""Command-line behaviour: outputs, exit codes, determinism."""

import hashlib
import random
import tracemalloc

import pytest

import tau2.cli as cli
import tau2.randmodel as randmodel
from tau2.cli import main
from tau2.core import Tau2Presentation
from tau2.dioph import MAX_NESTING_DEPTH
from tau2.errors import BudgetExceededError, InternalInvariantError, ParseError, PreconditionError, Tau2Error

from conftest import signed_permutation_orbits

HEIS = "n = 2\nm = 1\nlambda 1 1 2 = 1\n"
ABELIAN = "n = 2\nm = 1\n"
GROUP_3X2 = "n = 3\nm = 2\nlambda 1 1 2 = 1\nlambda 1 2 3 = 1\nlambda 2 1 3 = 1\nlambda 2 2 3 = 1\n"


@pytest.fixture
def heis_file(tmp_path):
    path = tmp_path / "heis.pres"
    path.write_text(HEIS)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_heisenberg(self, capsys, heis_file):
        code, out, _ = run(capsys, "analyze", heis_file)
        assert code == 0
        assert "regular = true" in out
        assert "csmall = [true, true]" in out
        assert "scalar_ring_Z_certified = true" in out
        assert "span_identity_holds = true" in out

    def test_abelian(self, capsys, tmp_path):
        path = tmp_path / "ab.pres"
        path.write_text(ABELIAN)
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "regular = false" in out
        assert "scalar_ring_Z_certified = false" in out

    def test_malformed_file_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.pres"
        for record, fragment in (
            ("lambda 9 1 2 = 1", ""),
            ("lambda 1 1 2", "lambda record needs '= value'"),
            ("lambda 1 1 = 1", "lambda record needs three indices"),
        ):
            path.write_text(f"n = 2\nm = 1\n{record}\n")
            code, out, err = run(capsys, "analyze", str(path))
            assert code == 1 and out == ""
            assert err.startswith("parse error: line 3: ") and fragment in err
            assert len(err.strip().splitlines()) == 1

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "analyze", "/no/such/file")
        assert code == 1

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "bad.pres"
        path.write_bytes(b"\xff\xfen = 2\nm = 1\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert "UTF-8" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("m", [100, 0])
    def test_size_budget(self, capsys, tmp_path, m):
        path = tmp_path / "huge.pres"
        path.write_text(f"n = 100000\nm = {m}\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 3 and out == ""
        assert "budget" in err

    def test_out_flag_and_version_header(self, capsys, heis_file, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "--out", str(target), "--version-header", "analyze", heis_file
        )
        assert code == 0 and out == ""
        text = target.read_text()
        assert text.startswith("# tau2 ")


class TestExperiment:
    def config(self, tmp_path, body):
        path = tmp_path / "exp.cfg"
        path.write_text(body)
        return str(path)

    def test_exact_anchor(self, capsys, tmp_path):
        cfg = self.config(
            tmp_path,
            "model = tau2\nn = 2\nm = 2\nell = 1\nproperties = csmall_conjunction\n"
            "trials = 100\nseed = 4\nmode = exact\n",
        )
        code, out, _ = run(capsys, "experiment", cfg)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("property,ell,mode,")
        assert "csmall_conjunction,1,exact,9,8," in lines[1]
        assert ",8/9," in lines[1]

    def test_mc_deterministic_and_thread_independent(self, capsys, tmp_path):
        cfg = self.config(
            tmp_path,
            "model = tau2\nn = 3\nm = 2\nell = 2\nproperties = regular center_is_C\n"
            "trials = 300\nseed = 9\n",
        )
        outs = []
        for threads in ("1", "1", "4"):
            code, out, _ = run(capsys, "--threads", threads, "experiment", cfg)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_polycyclic_model(self, capsys, tmp_path):
        cfg = self.config(
            tmp_path,
            "model = nilpotent\nn = 3\nell = 1 4\nproperties = abelianization_finite\n"
            "trials = 50\nseed = 2\n",
        )
        code, out, _ = run(capsys, "experiment", cfg)
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_trials_zero_rejected(self, capsys, tmp_path):
        cfg = self.config(
            tmp_path,
            "model = tau2\nn = 2\nm = 1\nell = 1\nproperties = regular\ntrials = 0\n",
        )
        code, _, err = run(capsys, "experiment", cfg)
        assert code == 1 and "trials" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, capsys, tmp_path, threads):
        cfg = self.config(
            tmp_path,
            "model = tau2\nn = 2\nm = 1\nell = 1\nproperties = regular\ntrials = 5\n",
        )
        code, out, err = run(capsys, "--threads", threads, "experiment", cfg)
        assert code == 1 and out == ""
        assert "--threads" in err

    def test_non_utf8_config(self, capsys, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"model = tau2\n\xff\xfe\n")
        code, out, err = run(capsys, "experiment", str(path))
        assert code == 1 and out == ""
        assert "UTF-8" in err and len(err.strip().splitlines()) == 1

    def test_non_integer_s_rejected(self, capsys, tmp_path):
        cfg = self.config(
            tmp_path,
            "model = nilpotent\nn = 3\ns = 2 x inf\nell = 1\nproperties = abelianization_finite\n"
            "trials = 5\n",
        )
        code, out, err = run(capsys, "experiment", cfg)
        assert code == 1 and out == ""
        assert "s entries" in err and len(err.strip().splitlines()) == 1

    def test_none_is_no_spelling_of_inf(self, capsys, tmp_path):
        cfg = self.config(
            tmp_path,
            "model = nilpotent\nn = 3\ns = none 2 inf\nell = 1\nproperties = abelianization_finite\ntrials = 2\n",
        )
        code, out, err = run(capsys, "experiment", cfg)
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("parse error: line 3: ") and "s entries must be integers or inf" in err

    @pytest.mark.parametrize("s", ["0 inf inf", "-2 inf inf"])
    def test_nonpositive_s_refused(self, capsys, tmp_path, s):
        cfg = self.config(
            tmp_path,
            f"model = nilpotent\nn = 3\ns = {s}\nell = 1\nproperties = abelianization_finite\n"
            "trials = 2\n",
        )
        code, out, err = run(capsys, "experiment", cfg)
        assert code == 2 and out == ""
        assert "positive" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "body, line, fragment",
        [
            # misspelt keys would otherwise fall back to mc mode and seed 0
            (
                "model = tau2\nn = 2\nm = 1\nell = 1\nproperties = regular\ntrials = 5\nmdoe = exact\nsede = 9\n",
                7,
                "unknown key 'mdoe'",
            ),
            # keys the model does not read
            ("n = 2\nm = 1\ns = inf inf\nell = 1\nproperties = regular\ntrials = 5\n", 3, "key 's'"),
            ("model = nilpotent\nn = 2\nell = 1\nm = 1\nproperties = abelianization_finite\ntrials = 5\n", 4, "key 'm'"),
            # malformed records and values
            ("n = 2\nm 1\nell = 1\nproperties = regular\ntrials = 5\n", 2, "expected 'key = value', got 'm 1'"),
            ("n = 2\nm = 1\nell = 1\nn = 2\nproperties = regular\ntrials = 5\n", 4, "duplicate key 'n'"),
            ("m = 1\nell = 1\nproperties = regular\ntrials = 5\n", None, "config must set n"),
            ("model = tau3\nn = 2\nm = 1\nell = 1\nproperties = regular\ntrials = 5\n", 1, "unknown model 'tau3'"),
            (
                "model = nilpotent\nn = 3\ns = inf inf\nell = 1\nproperties = abelianization_finite\ntrials = 5\n",
                3,
                "s must list 3 entries",
            ),
            ("n = 2\nm = 1\nell =\nproperties = regular\ntrials = 5\n", 3, "ell list must not be empty"),
            ("n = 2\nm = 1\nell = 1\nproperties =\ntrials = 5\n", 4, "properties list must not be empty"),
            ("n = 2\nm = 1\nell = 1\nproperties = regular\ntrials = 5\nmode = fast\n", 6, "unknown mode 'fast'"),
            (
                "model = nilpotent\nn = 3\nell = 1\nproperties = abelianization_finite\ntrials = 5\nmode = exact\n",
                6,
                "exact enumeration is only supported for the tau2 model",
            ),
        ],
        ids=[
            "misspelt",
            "s_under_tau2",
            "m_under_nilpotent",
            "no_equals",
            "duplicate_key",
            "missing_n",
            "unknown_model",
            "s_length",
            "empty_ell",
            "empty_properties",
            "unknown_mode",
            "exact_nilpotent",
        ],
    )
    def test_unknown_key_rejected(self, capsys, tmp_path, body, line, fragment):
        code, out, err = run(capsys, "experiment", self.config(tmp_path, body))
        assert code == 1 and out == ""
        assert fragment in err
        assert err.startswith("parse error: " if line is None else f"parse error: line {line}: ")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_property_rejected(self, capsys, tmp_path):
        cfg = self.config(
            tmp_path,
            "model = tau2\nn = 2\nm = 1\nell = 1\nproperties = bogus\ntrials = 5\n",
        )
        code, _, err = run(capsys, "experiment", cfg)
        assert code == 1 and "bogus" in err

    def test_exact_budget_exceeded(self, capsys, tmp_path):
        cfg = self.config(
            tmp_path,
            "model = tau2\nn = 4\nm = 4\nell = 3\nproperties = regular\n"
            "trials = 5\nmode = exact\n",
        )
        code, _, err = run(capsys, "experiment", cfg)
        assert code == 3 and "budget" in err.lower()

    def test_auto_mode_flags_rows(self, capsys, tmp_path):
        cfg = self.config(
            tmp_path,
            "model = tau2\nn = 2\nm = 2\nell = 1\nproperties = regular\n"
            "trials = 20\nseed = 1\nmode = auto\n",
        )
        code, out, _ = run(capsys, "experiment", cfg)
        assert code == 0
        assert "regular,1,exact,9," in out
        big = self.config(
            tmp_path,
            "model = tau2\nn = 4\nm = 4\nell = 3\nproperties = regular\n"
            "trials = 20\nseed = 1\nmode = auto\n",
        )
        code, out, _ = run(capsys, "experiment", big)
        assert code == 0
        assert "regular,3,mc,20," in out

    def test_seed_flag_overrides(self, capsys, tmp_path):
        cfg = self.config(
            tmp_path,
            "model = tau2\nn = 2\nm = 1\nell = 1\nproperties = regular\n"
            "trials = 50\nseed = 1\n",
        )
        _, out1, _ = run(capsys, "experiment", cfg)
        _, out2, _ = run(capsys, "--seed", "1", "experiment", cfg)
        _, out3, _ = run(capsys, "--seed", "2", "experiment", cfg)
        assert out1 == out2 != out3

    def test_exact_pass_builds_each_presentation_once_per_ell(self, capsys, tmp_path, monkeypatch):
        # exact mode builds one representative per signed-permutation orbit,
        # once per ell, and every property reads that one object
        orbits = sum(len(signed_permutation_orbits(2, 2, ell)) for ell in (1, 2))
        assert orbits == 3 + 6
        built = []
        init = Tau2Presentation.__init__
        monkeypatch.setattr(Tau2Presentation, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        cfg = self.config(
            tmp_path,
            "model = tau2\nn = 2\nm = 2\nell = 1 2\nproperties = " + " ".join(randmodel.TAU2_PROPERTIES)
            + "\ntrials = 5\nmode = exact\n",
        )
        code, out, _ = run(capsys, "experiment", cfg)
        assert code == 0 and len(out.splitlines()) == 1 + 7 * 2
        assert len(built) == orbits

    def test_mc_pass_draws_each_trial_once_per_ell(self, capsys, tmp_path, monkeypatch):
        draws = []
        sample = randmodel.sample_tau2
        monkeypatch.setattr(randmodel, "sample_tau2", lambda params, rng: draws.append(1) or sample(params, rng))
        cfg = self.config(
            tmp_path,
            "model = tau2\nn = 3\nm = 2\nell = 1 3\nproperties = regular csmall_conjunction\n"
            "trials = 40\nseed = 6\n",
        )
        code, out, _ = run(capsys, "experiment", cfg)
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 2
        assert len(draws) == 2 * 40

    def test_relation_model_draws_each_trial_once_per_ell(self, capsys, tmp_path, monkeypatch):
        # building the model's parameters validates the shape without a draw
        draws = []
        sample = randmodel.sample_polycyclic_presentation
        monkeypatch.setattr(
            randmodel, "sample_polycyclic_presentation", lambda *a: draws.append(1) or sample(*a)
        )
        cfg = self.config(
            tmp_path,
            "model = nilpotent\nn = 4\ns = 2 inf 3 inf\nell = 1 2 5\nproperties = abelianization_finite\n"
            "trials = 7\nseed = 6\n",
        )
        code, out, _ = run(capsys, "experiment", cfg)
        assert code == 0 and len(out.splitlines()) == 1 + 3
        assert len(draws) == 3 * 7

    @pytest.mark.parametrize(
        "head, properties",
        [
            # n=2, m=2: ell=1 has 9 presentations (exact), ell=2000 is past the
            # enumeration budget (mc); one name is listed twice
            (
                "model = tau2\nn = 2\nm = 2\nell = 1 2000 3\nmode = auto\n",
                ["regular", "csmall_conjunction", "regular", "center_is_C", "all_commutators_nontrivial"],
            ),
            (
                "model = nilpotent\nn = 3\ns = 2 inf inf\nell = 1 4\n",
                ["abelianization_finite", "abelianization_finite"],
            ),
        ],
    )
    def test_mixed_config_matches_single_property_configs(self, capsys, tmp_path, head, properties):
        def experiment(props):
            cfg = self.config(tmp_path, head + f"properties = {' '.join(props)}\ntrials = 60\nseed = 3\n")
            code, out, _ = run(capsys, "--seed", "11", "experiment", cfg)
            assert code == 0
            return out

        mixed = experiment(properties)
        singles = [experiment([prop]).splitlines(keepends=True) for prop in properties]
        assert mixed == singles[0][0] + "".join(line for rows in singles for line in rows[1:])
        assert "mc" in mixed and ",11\n" in mixed
        if "tau2" in head:
            assert "regular,1,exact,9," in mixed and "regular,2000,mc,60," in mixed

    def test_tau2_model_size_budget(self, capsys, tmp_path):
        # (m+n)*n*n: n=50, m=350 is exactly 10**6 entries; m=351 is over it
        for m, want in ((350, 0), (351, 3)):
            cfg = self.config(
                tmp_path,
                f"model = tau2\nn = 50\nm = {m}\nell = 1\nproperties = all_commutators_nontrivial\n"
                "trials = 1\n",
            )
            code, out, err = run(capsys, "experiment", cfg)
            assert code == want, err
        assert out == "" and "budget" in err
        big = self.config(
            tmp_path,
            "model = tau2\nn = 100000\nm = 100\nell = 1\nproperties = regular\ntrials = 1\nmode = exact\n",
        )
        code, out, err = run(capsys, "experiment", big)
        assert code == 3 and out == "" and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "tail, trials, want",
        [
            ("ell = 1 -1\n", 5, 2),  # a negative bound after a valid one
            ("ell = 1 9\nmode = exact\n", 5, 3),  # 19**6 presentations after 3**6
            ("ell = 1 9\nmode = auto\n", 10**8, 3),  # auto picks mc for ell = 9, with too many trials
        ],
    )
    def test_every_ell_checked_before_the_first_pass(self, capsys, tmp_path, monkeypatch, tail, trials, want):
        calls = []
        monkeypatch.setattr(cli, "exact_fraction", lambda *args: calls.append("exact"))
        monkeypatch.setattr(cli, "montecarlo", lambda *args: calls.append("mc"))
        cfg = self.config(tmp_path, f"model = tau2\nn = 3\nm = 2\nproperties = regular\ntrials = {trials}\n" + tail)
        code, out, err = run(capsys, "experiment", cfg)
        assert (code, out, calls) == (want, "", [])
        assert len(err.strip().splitlines()) == 1

    def test_trials_budget(self, capsys, tmp_path, monkeypatch):
        # more trials than the exact-mode cap of 10**7 exit 3 before any draw
        def no_draw(*args):
            raise AssertionError("sampler called")

        monkeypatch.setattr(randmodel, "sample_tau2", no_draw)
        monkeypatch.setattr(randmodel, "sample_polycyclic_presentation", no_draw)
        for head in (
            "model = tau2\nn = 2\nm = 1\nell = 1\nproperties = regular\n",
            "model = nilpotent\nn = 3\nell = 1 2\nproperties = abelianization_finite\n",
        ):
            for trials in (10**12, 10**7 + 1):
                cfg = self.config(tmp_path, head + f"trials = {trials}\n")
                code, out, err = run(capsys, "experiment", cfg)
                assert code == 3 and out == "" and len(err.strip().splitlines()) == 1, err
                assert "trials" in err and "budget" in err

    def test_polycyclic_model_size_budget(self, capsys, tmp_path, monkeypatch):
        big = self.config(
            tmp_path,
            "model = nilpotent\nn = 100000\nell = 1\nproperties = abelianization_finite\ntrials = 1\n",
        )
        code, out, err = run(capsys, "experiment", big)
        assert code == 3 and out == "" and len(err.strip().splitlines()) == 1
        # n*n*n against a budget of 27: n=3 passes, n=4 is refused
        monkeypatch.setattr(randmodel, "DEFAULT_SIZE_BUDGET", 27)
        for n, want in ((3, 0), (4, 3)):
            cfg = self.config(
                tmp_path,
                f"model = nilpotent\nn = {n}\nell = 1\nproperties = abelianization_finite\ntrials = 5\n",
            )
            code, out, err = run(capsys, "experiment", cfg)
            assert code == want, err
        assert out == "" and "budget" in err


_MC_HEADER = "property,ell,mode,trials,successes,estimate,fraction,ci_low,ci_high,seed\n"

# Monte Carlo stdout recorded before the samplers drew from getrandbits
# directly, when they called rng.randint(-ell, ell) for every exponent.
# The first config reads the tau2 sampler's stream; the fourth the
# nilpotent sampler's.  The second and third count 0 whatever is drawn, so
# they pin the format: in the nilpotent one the columns of x_1 and x_2 meet
# only x_1's power row, and in the polycyclic one no row meets x_1's column.
# The fifth, recorded before the relation rows were built from slices of
# the draws, reads the polycyclic sampler's stream: without the leading 1
# of its conjugation rows it would count 195, not 198.
# The last two tau2 configs, recorded before the rank modulo a prime
# dropped its modular inverses, evaluate all seven properties: at (4, 5) the
# generator certificate runs on 5 x 3 matrices, and at (5, 2) it never
# applies, so every generator goes to the lattice test.
MC_PINNED = [
    (
        "model = tau2\nn = 3\nm = 2\nell = 1 4\nproperties = csmall_conjunction regular center_is_C\n"
        "trials = 200\nseed = 7\n",
        "csmall_conjunction,1,mc,200,58,0.29,29/100,0.2315392689125782,0.3563760535731166,7\n"
        "csmall_conjunction,4,mc,200,155,0.775,31/40,0.7122575346140798,0.8273771621308439,7\n"
        "regular,1,mc,200,171,0.855,171/200,0.7995121871510563,0.8971071486469359,7\n"
        "regular,4,mc,200,200,1.0,1/1,0.9811539940816791,1.0,7\n"
        "center_is_C,1,mc,200,171,0.855,171/200,0.7995121871510563,0.8971071486469359,7\n"
        "center_is_C,4,mc,200,200,1.0,1/1,0.9811539940816791,1.0,7\n",
    ),
    (
        "model = nilpotent\nn = 4\ns = 2 inf 3 inf\nell = 3\nproperties = abelianization_finite\n"
        "trials = 200\nseed = 7\n",
        "abelianization_finite,3,mc,200,0,0.0,0/1,0.0,0.018846005918320894,7\n",
    ),
    (
        "model = polycyclic\nn = 3\nell = 2\nproperties = abelianization_finite\ntrials = 100\nseed = 7\n",
        "abelianization_finite,2,mc,100,0,0.0,0/1,0.0,0.03699480747600191,7\n",
    ),
    (
        "model = nilpotent\nn = 4\ns = 2 3 inf 5\nell = 3\nproperties = abelianization_finite\n"
        "trials = 200\nseed = 7\n",
        "abelianization_finite,3,mc,200,195,0.975,39/40,0.9428208558483829,0.9892754385292123,7\n",
    ),
    (
        "model = polycyclic\nn = 3\ns = 2 inf inf\nell = 1\nproperties = abelianization_finite\n"
        "trials = 200\nseed = 7\n",
        "abelianization_finite,1,mc,200,198,0.99,99/100,0.9642775148038205,0.9972533993962251,7\n",
    ),
    (
        "model = tau2\nn = 4\nm = 5\nell = 1 3\nproperties = all_generators_csmall center_is_C"
        " all_commutators_nontrivial derived_rank_is_r regular scalarZ_certified csmall_conjunction\n"
        "trials = 200\nseed = 7\n",
        "all_generators_csmall,1,mc,200,173,0.865,173/200,0.8107074954488287,0.9055349202307972,7\n"
        "all_generators_csmall,3,mc,200,199,0.995,199/200,0.9722256001302286,0.999116854010634,7\n"
        "center_is_C,1,mc,200,200,1.0,1/1,0.9811539940816791,1.0,7\n"
        "center_is_C,3,mc,200,200,1.0,1/1,0.9811539940816791,1.0,7\n"
        "all_commutators_nontrivial,1,mc,200,199,0.995,199/200,0.9722256001302286,0.999116854010634,7\n"
        "all_commutators_nontrivial,3,mc,200,200,1.0,1/1,0.9811539940816791,1.0,7\n"
        "derived_rank_is_r,1,mc,200,181,0.905,181/200,0.8563973488560237,0.9383373863501365,7\n"
        "derived_rank_is_r,3,mc,200,200,1.0,1/1,0.9811539940816791,1.0,7\n"
        "regular,1,mc,200,181,0.905,181/200,0.8563973488560237,0.9383373863501365,7\n"
        "regular,3,mc,200,200,1.0,1/1,0.9811539940816791,1.0,7\n"
        "scalarZ_certified,1,mc,200,173,0.865,173/200,0.8107074954488287,0.9055349202307972,7\n"
        "scalarZ_certified,3,mc,200,199,0.995,199/200,0.9722256001302286,0.999116854010634,7\n"
        "csmall_conjunction,1,mc,200,173,0.865,173/200,0.8107074954488287,0.9055349202307972,7\n"
        "csmall_conjunction,3,mc,200,199,0.995,199/200,0.9722256001302286,0.999116854010634,7\n",
    ),
    (
        "model = tau2\nn = 5\nm = 2\nell = 1 3\nproperties = all_generators_csmall center_is_C"
        " all_commutators_nontrivial derived_rank_is_r regular scalarZ_certified csmall_conjunction\n"
        "trials = 200\nseed = 7\n",
        "all_generators_csmall,1,mc,200,0,0.0,0/1,0.0,0.018846005918320894,7\n"
        "all_generators_csmall,3,mc,200,0,0.0,0/1,0.0,0.018846005918320894,7\n"
        "center_is_C,1,mc,200,199,0.995,199/200,0.9722256001302286,0.999116854010634,7\n"
        "center_is_C,3,mc,200,200,1.0,1/1,0.9811539940816791,1.0,7\n"
        "all_commutators_nontrivial,1,mc,200,60,0.3,3/10,0.24074644243406385,0.3667919599332645,7\n"
        "all_commutators_nontrivial,3,mc,200,162,0.81,81/100,0.7499864142552062,0.8583290620754351,7\n"
        "derived_rank_is_r,1,mc,200,200,1.0,1/1,0.9811539940816791,1.0,7\n"
        "derived_rank_is_r,3,mc,200,200,1.0,1/1,0.9811539940816791,1.0,7\n"
        "regular,1,mc,200,199,0.995,199/200,0.9722256001302286,0.999116854010634,7\n"
        "regular,3,mc,200,200,1.0,1/1,0.9811539940816791,1.0,7\n"
        "scalarZ_certified,1,mc,200,0,0.0,0/1,0.0,0.018846005918320894,7\n"
        "scalarZ_certified,3,mc,200,0,0.0,0/1,0.0,0.018846005918320894,7\n"
        "csmall_conjunction,1,mc,200,0,0.0,0/1,0.0,0.018846005918320894,7\n"
        "csmall_conjunction,3,mc,200,0,0.0,0/1,0.0,0.018846005918320894,7\n",
    ),
]


class TestMonteCarloPinned:
    @pytest.mark.parametrize(
        "body, rows",
        MC_PINNED,
        ids=["tau2", "nilpotent_format", "polycyclic_format", "nilpotent", "polycyclic", "tau2_4x5", "tau2_5x2"],
    )
    def test_stdout_byte_for_byte(self, capsys, tmp_path, body, rows):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(body)
        code, out, _ = run(capsys, "experiment", str(cfg))
        assert code == 0
        assert out == _MC_HEADER + rows


# SHA-256 of `encode` and `odot` stdout recorded while an equation system
# still carried its own copy of the presentation, before `parse_equations`
# and `odot_equations` returned plain (lhs, rhs) tuples.
DIOPH_PINNED = [
    ("encode", HEIS, "x = a1^100000000\n", (), "6df7b47390c0f03f1f2257bbf95c3bfa21ce508b55f5b50f0875e5544daa3487"),
    (
        "encode",
        HEIS,
        "(x*y)^-2*[y,x]^-1 = c1\n",
        (),
        "e92aa2fbdad1f2ee58eccc5169e6918a18fbcf0c55a2ab6280161070c9182fd9",
    ),
    (
        "encode",
        HEIS,
        "y = " + "[x," * 20 + "a1" + "]" * 20 + "\n",
        (),
        "08c86e6682fde138aa8c6cdb9bfdac06aa95b053ed00399a36619c8de62f4509",
    ),
    (
        "encode",
        HEIS,
        "[x,y] = c1^-2\n[x,z] = c1^-1\n[y,w] = c1\n[z,v] = c1^2\n",
        ("--box", "2"),
        "cc0d26e590b796db9021cd534242b1e56807949bc8dc7b4c7291967e81daba6c",
    ),
    (
        "odot",
        GROUP_3X2,
        None,
        ("a2*a3^-1", "a1^-1", "--window", "6"),
        "4e961a82877b92458cc969d8026ffbbee18b7152bdbe906d4af2c5df2f396774",
    ),
]


class TestDiophPinned:
    @pytest.mark.parametrize(
        "command, pres, equations, extra, digest",
        DIOPH_PINNED,
        ids=["big_power", "negative_composite", "nested_commutators", "four_commutators_box2", "odot_3x2"],
    )
    def test_stdout_digest(self, capsys, tmp_path, command, pres, equations, extra, digest):
        pres_file = tmp_path / "g.pres"
        pres_file.write_text(pres)
        argv = [command, str(pres_file)]
        if equations is not None:
            eqs = tmp_path / "eqs.txt"
            eqs.write_text(equations)
            argv.append(str(eqs))
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEncode:
    def test_commutator_equation(self, capsys, heis_file, tmp_path):
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("[x,y] = c1\n")
        code, out, _ = run(capsys, "encode", heis_file, str(eqs))
        assert code == 0
        assert out == "vars X1 X2 Y1 Y2\n1*X1*Y2 + -1*X2*Y1 = 1\n"

    def test_box_solutions_printed(self, capsys, heis_file, tmp_path):
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("[x,y] = c1\n")
        code, out, _ = run(capsys, "encode", heis_file, str(eqs), "--box", "1")
        assert code == 0
        assert "# solutions in box [-1, 1]: 20" in out
        assert out.count("# solution:") == 20

    def test_box_solutions_are_not_held_as_a_list(self, heis_file, tmp_path):
        # 46,209 solutions over 8 unknowns take about 2.5 MB written out.  The
        # search hands them over one at a time and only their output lines
        # are held, written one by one after the count, so the traced peak
        # stays near 6 MB.  Joining those lines into one output text takes it
        # to about 10.5 MB, and a list of every solution dict held beside
        # that text to about 18 MB.
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("[x,y] = [z,w]\n")
        out = tmp_path / "box.txt"
        tracemalloc.start()
        try:
            code = main(["--out", str(out), "encode", heis_file, str(eqs), "--box", "2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        text = out.read_text()
        assert "# solutions in box [-2, 2]: 46209\n" in text
        assert text.count("# solution:") == 46209
        assert peak < 8 * 10**6, peak

    def test_box_budget(self, capsys, heis_file, tmp_path):
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("[x,y] = c1\n")
        code, _, _ = run(capsys, "encode", heis_file, str(eqs), "--box", "200")
        assert code == 3
        code, out, err = run(capsys, "encode", heis_file, str(eqs), "--box", "-1")
        assert code == 2 and out == "" and len(err.strip().splitlines()) == 1

    def test_large_power_is_closed_form(self, capsys, heis_file, tmp_path):
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("x = a1^100000000\n")
        code, out, _ = run(capsys, "encode", heis_file, str(eqs))
        assert code == 0
        assert out == "vars X1 X2 Xg1\n1*X1 = 100000000\n1*X2 = 0\n1*Xg1 = 0\n"

    def test_non_utf8_equations(self, capsys, heis_file, tmp_path):
        eqs = tmp_path / "eqs.txt"
        eqs.write_bytes(b"[x,y] = c1\xff\xfe\n")
        code, out, err = run(capsys, "encode", heis_file, str(eqs))
        assert code == 1 and out == ""
        assert "UTF-8" in err and len(err.strip().splitlines()) == 1

    def test_nesting_depth_limit(self, capsys, heis_file, tmp_path):
        def encode(text):
            eqs = tmp_path / "eqs.txt"
            eqs.write_text(text + "\n")
            return run(capsys, "encode", heis_file, str(eqs))

        def nested(depth):
            return "y = " + "(" * depth + "x*a1" + ")^-1" * depth

        # an even number of nested ^-1 leaves x*a1
        assert encode(nested(MAX_NESTING_DEPTH)) == encode("y = x*a1")
        # the limit is on depth, not on the number of brackets
        assert encode("y = " + "[x,a1]*" * MAX_NESTING_DEPTH + "(x)*(a1)")[0] == 0
        for depth in (MAX_NESTING_DEPTH + 1, 5000):
            code, out, err = encode(nested(depth))
            assert code == 1 and out == ""
            assert "nested deeper" in err and len(err.strip().splitlines()) == 1

    def test_bad_equation(self, capsys, heis_file, tmp_path):
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("x ==\n")
        code, _, _ = run(capsys, "encode", heis_file, str(eqs))
        assert code == 1
        eqs.write_text("[x,y) = c1\n")
        code, out, err = run(capsys, "encode", heis_file, str(eqs))
        assert code == 1 and out == ""
        assert err == "parse error: line 1: expected ']', got ')'\n"


class TestOdot:
    def test_pass(self, capsys, heis_file):
        code, out, _ = run(capsys, "odot", heis_file, "a1", "a2", "--window", "5")
        assert code == 0
        assert "PASS 121/121" in out

    def test_window_zero(self, capsys, heis_file):
        code, out, _ = run(capsys, "odot", heis_file, "a1", "a2", "--window", "0")
        assert code == 0
        assert "PASS 1/1" in out

    def test_commuting_elements_precondition(self, capsys, heis_file):
        code, _, err = run(capsys, "odot", heis_file, "a1", "a1", "--window", "2")
        assert code == 2
        assert "commute" in err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "odot")
        assert code == 1

    def test_large_power_argument_precondition(self, capsys, heis_file):
        # a1^N is evaluated in closed form; it is not c-small, so exit 2
        code, out, err = run(capsys, "odot", heis_file, "a1^100000000", "a2")
        assert code == 2 and out == ""
        assert err.startswith("precondition failed") and "c-small" in err

    def test_dangling_caret_argument(self, capsys, heis_file):
        code, out, err = run(capsys, "odot", heis_file, "a1^", "a2")
        assert code == 1 and out == ""
        assert err.startswith("parse error") and "a1^" in err

    # Words that an equation side and an odot base once read differently,
    # and whether the one grammar accepts them.
    @pytest.mark.parametrize(
        "word, accepted",
        [("(a1*a2)^2", True), ("[a1,a3]*a2", True), ("1*a1", True), ("a1^+2", False), ("", False)],
    )
    def test_a_base_is_read_as_an_equation_side(self, capsys, tmp_path, word, accepted):
        pres, eqs = tmp_path / "g32.pres", tmp_path / "w.eq"
        pres.write_text(GROUP_3X2)
        eqs.write_text(f"x = {word}\n")
        encode, _, encode_err = run(capsys, "encode", str(pres), str(eqs))
        odot, _, odot_err = run(capsys, "odot", str(pres), word, "a3", "--window", "1")
        if accepted:
            assert encode == 0 and odot != 1, (encode_err, odot_err)
        else:
            assert encode == odot == 1
            assert odot_err.startswith("parse error: base ") and len(odot_err.splitlines()) == 1

    def test_unknown_in_a_base(self, capsys, heis_file):
        code, out, err = run(capsys, "odot", heis_file, "a1*x", "a2")
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("parse error") and "'a1*x'" in err and "unknown 'x'" in err

    def test_nesting_depth_limit_on_a_base(self, capsys, heis_file):
        deep = "(" * 5000 + "a1" + ")" * 5000
        code, out, err = run(capsys, "odot", heis_file, deep, "a2")
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert "nested deeper" in err and len(err) < 300

    def test_window_budget(self, capsys, heis_file):
        code, out, err = run(capsys, "odot", heis_file, "a1", "a2", "--window", "3000")
        assert code == 3 and out == ""
        assert "budget" in err

    def test_negative_window_precondition(self, capsys, heis_file):
        code, out, err = run(capsys, "odot", heis_file, "a1", "a2", "--window", "-1")
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("precondition failed") and "window" in err

    def test_generator_index_over_the_digit_limit(self, capsys, heis_file, default_digit_limit):
        code, out, err = run(capsys, "odot", heis_file, "a1" + "0" * 4999, "a2")
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("parse error") and "digit limit" in err


class TestIntegersOfAnySize:
    """Budget refusals decide on numbers of any size without building or
    printing a number above the budget: exit 3, one stderr line."""

    HUGE = "1" + "0" * 3000  # under Python's 4,300-digit limit on int(str)

    @staticmethod
    def refused(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and len(err.strip().splitlines()) == 1, err
        assert err.startswith("budget exceeded: ")
        return err

    @staticmethod
    def config(tmp_path, text):
        path = tmp_path / "huge.cfg"
        path.write_text(text)
        return str(path)

    def test_exact_space_of_huge_size(self, capsys, tmp_path):
        # 3**14553 presentations: 6,944 digits, over the printable limit
        cfg = self.config(tmp_path, "n = 99\nm = 3\nell = 1\nproperties = regular\ntrials = 1\nmode = exact\n")
        assert "sample space has more than 10**30 presentations" in self.refused(capsys, "experiment", cfg)

    def test_exact_space_with_a_long_ell(self, capsys, tmp_path):
        ell = "1" + "0" * 299
        cfg = self.config(tmp_path, f"n = 99\nm = 3\nell = {ell}\nproperties = regular\ntrials = 1\nmode = exact\n")
        self.refused(capsys, "experiment", cfg)

    def test_auto_mode_with_a_long_ell_builds_no_space_size(self, capsys, tmp_path):
        # auto picks Monte Carlo without computing (2*ell+1)**14553, about
        # 1.8 MB here; the trial budget then refuses the run
        ell = "1" + "0" * 299
        cfg = self.config(tmp_path, f"n = 99\nm = 3\nell = {ell}\nproperties = regular\ntrials = 100000000\nmode = auto\n")
        tracemalloc.start()
        try:
            err = self.refused(capsys, "experiment", cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "trials" in err and peak < 10**6, peak

    def test_presentation_with_a_long_n(self, capsys, tmp_path):
        path = tmp_path / "long.pres"
        path.write_text("n = 1" + "0" * 2000 + "\nm = 1\n")
        assert "needs more than 10**30 matrix entries" in self.refused(capsys, "analyze", str(path))

    def test_odot_window(self, capsys, heis_file):
        self.refused(capsys, "odot", heis_file, "a1", "a2", "--window", self.HUGE)

    def test_encode_box(self, capsys, heis_file, tmp_path):
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("[x,y] = c1\n")
        assert "more than 10**30 evaluations" in self.refused(capsys, "encode", heis_file, str(eqs), "--box", self.HUGE)

    @pytest.mark.parametrize("n", ["10000000000", "1" + "0" * 2000], ids=["1e10", "2001 digits"])
    def test_relation_model_n_checked_before_s_is_built(self, capsys, tmp_path, n):
        cfg = self.config(tmp_path, f"model = nilpotent\nn = {n}\nell = 1\nproperties = abelianization_finite\ntrials = 1\n")
        self.refused(capsys, "experiment", cfg)

    # An answer with an integer over Python's 4,300-digit limit on str(int)
    # is refused by one short line that names the limit, never printed.

    def test_report_over_the_digit_limit(self, capsys, tmp_path, default_digit_limit):
        # ten 3,000-digit lambdas: the one center vector has 6,000-digit entries
        rng = random.Random(3)
        lams = "".join(
            f"lambda 1 {i} {j} = {rng.randrange(10**2999, 10**3000)}\n" for i in range(1, 6) for j in range(i + 1, 6)
        )
        path = tmp_path / "long_lambdas.pres"
        path.write_text("n = 5\nm = 1\n" + lams)
        err = self.refused(capsys, "analyze", str(path))
        assert "digit limit" in err and len(err) < 300, err

    def test_encoded_coefficient_over_the_digit_limit(self, capsys, heis_file, tmp_path, default_digit_limit):
        # gamma(x^k) carries C(k, 2) for k = 10**3000: about 6,000 digits
        eqs = tmp_path / "eqs.txt"
        eqs.write_text(f"y = x^{self.HUGE}\n")
        err = self.refused(capsys, "encode", heis_file, str(eqs))
        assert "digit limit" in err and len(err) < 300, err


class TestIntegerOptions:
    """``--window``, ``--box``, ``--seed`` and ``--threads`` are read by
    ``core.int_fields``: a value over Python's 4,300-digit limit on int(str)
    is refused by one short line that names the limit, never echoed."""

    OVER = "1" + "0" * 4999

    @staticmethod
    def argv(option, value, heis_file, tmp_path):
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("[x,y] = c1\n")
        return {
            "--window": ("odot", heis_file, "a1", "a2", "--window", value),
            "--box": ("encode", heis_file, str(eqs), "--box", value),
            "--seed": ("--seed", value, "analyze", heis_file),
            "--threads": ("--threads", value, "analyze", heis_file),
        }[option]

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("option", ["--window", "--box", "--seed", "--threads"])
    def test_over_the_digit_limit(self, capsys, heis_file, tmp_path, default_digit_limit, option, sign):
        code, out, err = run(capsys, *self.argv(option, sign + self.OVER, heis_file, tmp_path))
        assert code == 1 and out == "" and len(err.splitlines()) == 1 and len(err) < 300, err
        assert err.startswith(f"error: argument {option}: ") and "5000 digits" in err and "digit limit" in err

    @pytest.mark.parametrize("option", ["--window", "--box", "--seed", "--threads"])
    def test_not_an_integer(self, capsys, heis_file, tmp_path, option):
        code, out, err = run(capsys, *self.argv(option, "1.5", heis_file, tmp_path))
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert err == f"error: argument {option}: must be an integer\n"

    def test_values_read_as_before(self, capsys, heis_file, tmp_path):
        code, out, _ = run(capsys, "--seed", "-7", "--threads", "+2", *self.argv("--window", " 1", heis_file, tmp_path))
        assert code == 0 and out == "PASS 9/9 window points (window 1)\n"


class TestDeterminism:
    def test_analyze_byte_identical(self, capsys, heis_file):
        _, out1, _ = run(capsys, "analyze", heis_file)
        _, out2, _ = run(capsys, "analyze", heis_file)
        assert out1 == out2


class TestExitCodes:
    """Each error class carries its exit code and stderr label; ``main``
    reads them off the class, so this table is the one to keep in step."""

    @pytest.mark.parametrize(
        "error,code,label",
        [
            (Tau2Error, 1, "error"),
            (ParseError, 1, "parse error"),
            (PreconditionError, 2, "precondition failed"),
            (BudgetExceededError, 3, "budget exceeded"),
            (InternalInvariantError, 4, "internal invariant violated"),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_each_error_class(self, capsys, monkeypatch, error, code, label):
        def fail(path):
            raise error("forced")

        monkeypatch.setattr(cli, "load_presentation", fail)
        assert run(capsys, "analyze", "any.pres") == (code, "", f"{label}: forced\n")

    def test_out_is_a_directory(self, capsys, heis_file, tmp_path):
        code, out, err = run(capsys, "--out", str(tmp_path), "analyze", heis_file)
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_usage_error(self, capsys):
        assert run(capsys, "analyze") == (1, "", "error: the following arguments are required: presentation\n")

    def test_internal_invariant_maps_to_4(self, capsys, heis_file, monkeypatch):
        import tau2.cli as cli_mod
        from tau2.dioph import WindowFailure

        monkeypatch.setattr(
            cli_mod, "ring_window_report", lambda *a, **k: [WindowFailure(0, 0, "forced")]
        )
        code, out, err = run(capsys, "odot", heis_file, "a1", "a2", "--window", "1")
        assert code == 4
        assert "FAIL t1=0 t2=0" in out
        assert "invariant" in err


class TestSharedParser:
    """``main`` builds its parser once per process; sharing it must not
    change any call's exit code or output."""

    def calls(self, tmp_path, heis_file):
        bad = tmp_path / "bad.pres"
        bad.write_text("n = 2\nm = 1\nlambda 9 1 2 = 1\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "model = tau2\nn = 2\nm = 2\nell = 1\nproperties = csmall_conjunction regular\n"
            "trials = 10\nmode = exact\n"
        )
        return [
            (["analyze"], 1),
            (["--threads", "0", "analyze", heis_file], 1),
            (["analyze", str(bad)], 1),
            (["--help"], ("SystemExit", 0)),
            (["analyze", heis_file], 0),
            (["experiment", str(cfg)], 0),
        ]

    def call(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help exits through argparse
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_repeated_calls_match_first_calls(self, capsys, tmp_path, heis_file):
        calls = self.calls(tmp_path, heis_file)
        first = []
        for argv, _ in calls:
            cli._build_parser.cache_clear()
            first.append(self.call(capsys, argv))
        cli._build_parser.cache_clear()
        shared = [self.call(capsys, argv) for argv, _ in calls]
        assert shared == first
        assert [code for code, _, _ in shared] == [want for _, want in calls]
        assert shared[3][1].startswith("usage: tau2")
        assert "regular = true" in shared[4][1]
        assert shared[5][1].startswith("property,ell,mode,")

    def test_parser_built_once(self, capsys, monkeypatch, heis_file):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "tau2":  # subcommand parsers are named "tau2 <command>"
                built.append(self)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        try:
            codes = [run(capsys, "analyze", heis_file)[0] for _ in range(3)]
        finally:
            cli._build_parser.cache_clear()  # drop the parser built under the patch
        assert codes == [0, 0, 0]
        assert len(built) == 1
