import hashlib
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings
from itertools import combinations

import pytest

from sofl import cli, discrete, multiline, placement
from sofl.cli import EXIT_INPUT, EXIT_OK, EXIT_TOO_LARGE, main
from sofl.geom import centers_compatible
from sofl.instance import generate, parse_instance
from sofl.placement import ValidationFailureError

from conftest import thin_ring_instance, thin_ring_text, wide_tlines_text


@pytest.fixture
def inst_file(tmp_path):
    def write(text, name="inst.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_solve_text(inst_file, capsys):
    path = inst_file("variant csofl\nk 1\nB 0 1 1\n")
    assert main(["solve", "--input", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda 1" in out and "weight 1" in out


def test_solve_json(inst_file, capsys):
    path = inst_file("variant csofl\nk 2\nB 0 1 1\nB 4 1 1\n")
    assert main(["solve", "--input", path, "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["weight"] == 2.0 and doc["lambda"] == 1.0
    assert len(doc["centers"]) == 2


def test_solve_k_override(inst_file, capsys):
    path = inst_file("variant csofl\nk 1\nB 0 1 1\nB 4 1 1\n")
    assert main(["solve", "--input", path, "--k", "2", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["weight"] == 2.0


def test_solve_algorithms_agree(inst_file, capsys):
    path = inst_file("variant maxblue-nored\nk 1\nB -1 1\nB 1 1\nR 5 1\n")
    outs = []
    for algo in ("dp", "fast"):
        assert main(["solve", "--input", path, "--algorithm", algo, "--format", "json"]) == EXIT_OK
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0]["covered_blue"] == outs[1]["covered_blue"]


def test_solve_k1_scans_print_the_same_zero_center(inst_file, capsys):
    # The circle about x = 0 through (-0, 5) and (3, 4) is both the anchor's
    # own candidate at x = -0.0 and the pair's at 0.0; the scan prints 0.0
    # whichever of the two it keeps.
    path = inst_file("variant maxblue-nored\nk 1\nB -0 5\nB 3 4\n")
    want = ('{"lambda": 5.0, "weight": 2.0, "centers": [{"x": 0.0, "line": 0}], '
            '"covered_blue": [0, 1], "covered_red": []}\n')
    assert main(["solve", "--input", path, "--algorithm", "fast", "--format", "json"]) == EXIT_OK
    assert capsys.readouterr().out == want


def test_solve_fvd(inst_file, capsys):
    path = inst_file("variant allblue-minred\nk 1\nB -1 1\nB 1 1\nR 0 2\n")
    assert main(["solve", "--input", path, "--algorithm", "fvd", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["covered_blue"] == [0, 1] and doc["covered_red"] == []


def test_solve_fvd_writes_only_the_answer(inst_file):
    # The farthest-map breakpoints alone give 3 reds here and the solve 2;
    # the solve reports only its answer. It runs in its own process, so no
    # logging set-up of the test runner stands between it and stderr.
    path = inst_file(generate(5, 9, 1, "allblue-minred"))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "sofl.cli", "solve", "--input", path,
                          "--algorithm", "fvd", "--format", "json"],
                         capture_output=True, text=True, env=env, check=False)
    assert (run.returncode, run.stderr) == (EXIT_OK, "")
    assert run.stdout == ('{"lambda": 6.7082039325, "weight": 19.0, "centers": [{"x": 12.0, "line": 0}], '
                          '"covered_blue": [0, 2, 7], "covered_red": [5, 8]}\n')


def test_solve_infeasible_maxblue(inst_file, capsys):
    path = inst_file("variant maxblue-nored\nk 1\nB 0 2\nR 0 1\n")
    assert main(["solve", "--input", path, "--algorithm", "fast"]) == EXIT_OK
    assert "no feasible" in capsys.readouterr().out


def test_parse_error_exit_code(inst_file, capsys):
    path = inst_file("variant csofl\nk 1\nB 0 1 -1\n")
    assert main(["solve", "--input", path]) == EXIT_INPUT
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "check"])
def test_k_override_below_one_exit_code(inst_file, capsys, command):
    path = inst_file("variant csofl\nk 1\nB 0 1 1\n")
    assert main([command, "--input", path, "--k", "0"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: k must be at least 1\n"


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
def test_bad_tolerance_exit_code(inst_file, capsys, command, eps):
    path = inst_file("variant csofl\nk 1\nB 0 1 1\n")
    assert main([command, "--input", path, "--tol", eps]) == EXIT_INPUT
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: eps must be finite and nonnegative")


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("text", ["variant csofl\nk 1\nB nan 1 1\n", "variant csofl\nk 1\nB 1 1 inf\n",
                                  "variant csofl\nk 2\nB inf 1 1\nB 3 1 1\n"])
def test_non_finite_number_exit_code(inst_file, capsys, command, text):
    path = inst_file(text)
    assert main([command, "--input", path]) == EXIT_INPUT
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: line 3: ") and "not a finite number" in out.err


@pytest.mark.parametrize("command", ["solve", "check"])
def test_weights_whose_sums_overflow_exit_code(inst_file, capsys, command):
    # Two blues of weight 1e308 at k = 2: the line DP's sums overflowed,
    # `solve --format json` printed "weight": Infinity and `check` passed.
    # k times the sum of |w| passes 2^1023 at the first of them, line 3.
    path = inst_file("variant csofl\nk 2\nB 0 1 1e308\nB 5 1 1e308\nR 2.5 1 -1\n")
    args = [command, "--input", path] + (["--format", "json"] if command == "solve" else [])
    assert main(args) == EXIT_INPUT
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: line 3: k (2) times the sum of |w| so far exceeds 2^1023\n"


@pytest.mark.parametrize("command", ["solve", "check"])
def test_weight_bound_follows_the_k_override(inst_file, capsys, command):
    # At the file's k = 1 the weights 3e307 fit and solve to a finite weight;
    # `--k 2` doubles the bound's product, which passes 2^1023 at line 4.
    path = inst_file("variant csofl\nk 1\nB 0 1 3e307\nB 5 1 3e307\nR 2.5 1 -1\n")
    args = [command, "--input", path] + (["--format", "json"] if command == "solve" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == EXIT_OK
    out = capsys.readouterr().out
    if command == "solve":
        assert json.loads(out)["weight"] == 6e307  # one disk covers all three points
    assert main(args + ["--k", "2"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: line 4: k (2) times the sum of |w| so far exceeds 2^1023\n"


def test_missing_file_exit_code(capsys):
    assert main(["solve", "--input", "/nonexistent/file.txt"]) == EXIT_INPUT


def test_gen_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["gen", "--seed", "9", "--n", "5", "--k", "2", "--variant", "tlines", "--t", "2"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_stdout_matches_api(capsys):
    assert main(["gen", "--seed", "4", "--n", "3", "--k", "1", "--variant", "csofl"]) == EXIT_OK
    assert capsys.readouterr().out == generate(4, 3, 1, "csofl")


@pytest.mark.parametrize("args, message", [
    (["--k", "0"], "k must be at least 1"),
    (["--n", "-2"], "n must be nonnegative, and positive for allblue-minred"),
    (["--n", "0", "--variant", "allblue-minred"],
     "n must be nonnegative, and positive for allblue-minred"),
    (["--weight-range", "0"], "weight range must be at least 1"),
    (["--coord-range", "-1"], "coord range must be nonnegative"),
    (["--variant", "tlines", "--t", "0"], "tlines instances need t >= 1"),
    (["--variant", "discrete", "--s", "120"],
     "no room for 120 sites 0.05 rad apart after 100000 rejected draws"),
])
def test_gen_rejects_bad_sizes(capsys, args, message):
    argv = ["gen", "--seed", "1", "--n", "3", "--k", "1", "--variant", "csofl"] + args
    assert main(argv) == EXIT_INPUT
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


@pytest.mark.parametrize("fraction", ["nan", "inf", "-0.5", "7"])
def test_gen_rejects_a_red_fraction_outside_0_1(capsys, fraction):
    argv = ["gen", "--seed", "1", "--n", "3", "--k", "1", "--variant", "csofl", "--red-fraction", fraction]
    assert main(argv) == EXIT_INPUT
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: red fraction must be in [0, 1]\n"


def test_gen_accepts_the_red_fraction_bounds(capsys):
    for fraction, color in (("0", "B"), ("0.0", "B"), ("1", "R"), ("1.0", "R")):
        argv = ["gen", "--seed", "1", "--n", "3", "--k", "1", "--variant", "csofl", "--red-fraction", fraction]
        assert main(argv) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == [color] * 3, fraction


def test_gen_accepts_unused_sizes(capsys):
    # --t and --s only matter for their own variant, and the special
    # variants draw no weights.
    for args in (["--variant", "csofl", "--t", "0", "--s", "0"],
                 ["--variant", "maxblue-nored", "--weight-range", "0"],
                 ["--variant", "csofl", "--n", "0"]):
        assert main(["gen", "--seed", "1", "--n", "3", "--k", "1"] + args) == EXIT_OK
    capsys.readouterr()


# sha256 of the texts of `generate(seed, 4, 3, "discrete", s=80)` for
# seeds 0..9, concatenated, as recorded before the draw had a cap.
DENSE_SITES_SHA256 = "ec9e9ded078c471e3afe5b7f4c0a8a866d29c05821c426f2fb8e54f1ea0e078d"


def test_gen_dense_sites_bytes():
    # Each of these draws rejects 184 to 371 angles; a draw that ends under
    # the cap on rejected draws gives the bytes it gave without one.
    text = "".join(generate(seed, 4, 3, "discrete", s=80) for seed in range(10))
    assert hashlib.sha256(text.encode()).hexdigest() == DENSE_SITES_SHA256


def test_jobs_flag_is_rejected(inst_file, capsys):
    # `--jobs` had no effect and is gone; argparse rejects it as unknown.
    path = inst_file("variant csofl\nk 1\nB 0 1 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", path, "--jobs", "1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --jobs 1" in out.err


def test_naive_algorithm_is_rejected(inst_file, capsys):
    # The naive k = 1 scan is a test reference; `fast` is the one solver.
    path = inst_file("variant maxblue-nored\nk 1\nB 0 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", path, "--algorithm", "naive"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "invalid choice: 'naive'" in out.err


def test_check_too_large_exit_code(inst_file, capsys):
    pts = "\n".join(f"B {i} 1 1" for i in range(9))  # beyond the n<=8 guard
    path = inst_file(f"variant csofl\nk 1\n{pts}\n")
    assert main(["check", "--input", path]) == EXIT_TOO_LARGE


@pytest.mark.parametrize("module, kernel, text", [
    (discrete, "_solve_chunk", "variant discrete\nk 2\nsite 0 0\nsite 4 0\nsite 0 4\nB 1 1 1\n"),
    (multiline, "_solve_radii", "variant tlines\nk 2\nlines 0 3\nB 0 1 1\nB 4 2 1\n"),
], ids=["discrete", "tlines"])
def test_solver_fault_is_not_an_input_error(inst_file, monkeypatch, module, kernel, text):
    # A kernel that chose an infeasible selection has a bug; exit 2 would
    # blame the input. Both solvers reach their chunk kernel through
    # `_solve_radii`.
    def infeasible(*args):
        raise ValidationFailureError("overlapping selection")

    monkeypatch.setattr(module, kernel, infeasible)
    with pytest.raises(ValidationFailureError):
        main(["solve", "--input", inst_file(text)])


def test_solve_discrete_26_site_thin_ellipse(inst_file, capsys):
    # 26 sites on a 40 x 8 ellipse. The chord recursion, checking each new
    # site only against its triangle, chose sites that were not pairwise
    # compatible here, and re-checking by subset enumeration gave up.
    rng = random.Random(0)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(26))
    rows = ["variant discrete", "k 6"]
    rows += [f"site {40 * math.cos(a)!r} {8 * math.sin(a)!r}" for a in angles]
    rows += [f"B {rng.randint(-42, 42)} {rng.randint(-9, 9)} {rng.randint(1, 9)}"
             for _ in range(10)]
    text = "\n".join(rows) + "\n"
    assert main(["solve", "--input", inst_file(text), "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["weight"] == 52.0  # every blue
    sites = [parse_instance(text).sites[c["site"]] for c in doc["centers"]]
    assert len(sites) >= 2
    for a, b in combinations(sites, 2):
        assert centers_compatible(a, b, doc["lambda"])


def test_check_guard_before_solve(inst_file, monkeypatch):
    # The oracle's size guard fires before any solver runs.
    def boom(*args):
        raise AssertionError("solver ran before the oracle's size guard")

    monkeypatch.setattr(cli, "maxblue_nored_fast", boom)
    path = inst_file(generate(3, 400, 1, "maxblue-nored"))
    assert main(["check", "--input", path]) == EXIT_TOO_LARGE


def _call(argv, capsys):
    """(exit code, stdout, stderr) of one `main` call; an argparse error
    exits through `SystemExit`."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shared_parser_keeps_no_state(inst_file, monkeypatch, capsys):
    # A run of calls in one process, with --k given then omitted and
    # argparse errors in between; each must print and return what it does
    # when it is the only call on a freshly built parser.
    path = inst_file("variant csofl\nk 1\nB 0 1 2\nR 2 1 -3\nB 5 2 4\n")
    runs = [
        ["solve", "--input", path, "--k", "2", "--format", "json"],
        ["check", "--input", path],
        ["solve", "--input", path, "--format", "xml"],
        ["solve", "--input", path],
        ["check", "--input", path, "--k", "2", "--tol", "1e-6"],
        ["gen", "--seed", "3", "--n", "4", "--k", "2", "--variant", "tlines"],
        ["gen", "--seed", "3"],
        ["check", "--input", path],
        ["gen", "--seed", "3", "--n", "4", "--k", "1", "--variant", "csofl"],
        ["solve", "--input", path],
    ]
    shared = [_call(argv, capsys) for argv in runs]
    assert [code for code, *_ in shared] == [0, 0, 2, 0, 0, 0, 2, 0, 0, 0]
    assert shared[1] == shared[7] and shared[3] == shared[9] and shared[0] != shared[3]
    for argv, got in zip(runs, shared):
        monkeypatch.setattr(cli, "_PARSER", cli._parser())
        assert _call(argv, capsys) == got, argv


def test_check_pass(inst_file, capsys):
    path = inst_file("variant csofl\nk 2\nB 0 1 2\nR 2 1 -3\nB 5 2 4\n")
    assert main(["check", "--input", path]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_check_all_variants(tmp_path, capsys):
    cases = [
        ("csofl", {"n": 6, "k": 2}),
        ("tlines", {"n": 3, "k": 1}),  # k=1 keeps the oracle center guard happy
        ("discrete", {"n": 4, "k": 2}),
        ("maxblue-nored", {"n": 6, "k": 1}),
        ("allblue-minred", {"n": 6, "k": 1}),
        ("maxblue-nored", {"n": 6, "k": 2}),
        ("allblue-minred", {"n": 6, "k": 2}),
    ]
    for i, (variant, kw) in enumerate(cases):
        text = generate(20 + i, kw["n"], kw["k"], variant, t=2, s=5)
        path = tmp_path / f"{variant}-{i}.txt"
        path.write_text(text)
        rc = main(["check", "--input", str(path)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK, f"{variant} k={kw['k']}\n{out}"
        assert "PASS" in out


GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"
GOLDEN_SOLVE = pathlib.Path(__file__).resolve().parent / "golden_solve.txt"


def _golden_solve_text(capsys) -> str:
    """`sofl solve --format json` on every golden instance, each output
    under a `# <file name>` header line."""
    parts = []
    for path in sorted(GOLDEN.glob("*.txt")):
        assert main(["solve", "--input", str(path), "--format", "json"]) == EXIT_OK
        parts.append(f"# {path.name}\n" + capsys.readouterr().out)
    return "".join(parts)


def test_solve_json_golden_bytes(capsys):
    # Pins the chosen centers and covered ids, which `sofl check` does not
    # compare, on all 30 golden instances.
    assert _golden_solve_text(capsys).encode() == GOLDEN_SOLVE.read_bytes()


GOLDEN_TLINES = pathlib.Path(__file__).resolve().parent / "golden_tlines_solve.txt"


def _tlines_cases():
    """(seed, t, k, n) of the pinned t-lines instances: t and k cycle over
    2-3 and n over 5-8, or 5-6 for t = k = 3, whose search is the slowest."""
    for seed in range(40):
        t, k = 2 + seed % 2, 2 + seed // 2 % 2
        yield seed, t, k, 5 + seed // 4 % (2 if t == k == 3 else 4)


def _tlines_solve_text(write, capsys, cases=None) -> str:
    """`sofl solve --format json` on each pinned t-lines instance, or on the
    given cases of them, under a `# seed=.. t=.. k=.. n=..` header line."""
    parts = []
    for seed, t, k, n in cases or _tlines_cases():
        path = write(generate(seed, n, k, "tlines", t=t))
        assert main(["solve", "--input", path, "--format", "json"]) == EXIT_OK
        parts.append(f"# seed={seed} t={t} k={k} n={n}\n" + capsys.readouterr().out)
    return "".join(parts)


def test_solve_json_tlines_bytes(inst_file, capsys):
    # The golden t-lines files all have k = 1; these pin the hops, the
    # compatibility table and the top-k bound of k = 2 and 3.
    assert _tlines_solve_text(inst_file, capsys).encode() == GOLDEN_TLINES.read_bytes()


GOLDEN_TLINES_WIDE = pathlib.Path(__file__).resolve().parent / "golden_tlines_wide.txt"


def _tlines_wide_solve_text(write, capsys, seeds=range(32)) -> str:
    """`sofl solve --format json` on `wide_tlines_text(seed)` for seeds
    0..31, or the given ones, under a `# seed=..` header line."""
    parts = []
    for seed in seeds:
        path = write(wide_tlines_text(seed))
        assert main(["solve", "--input", path, "--format", "json"]) == EXIT_OK
        parts.append(f"# seed={seed}\n" + capsys.readouterr().out)
    return "".join(parts)


def test_solve_json_tlines_wide_bytes(inst_file, capsys):
    # `golden_tlines_solve.txt` spans t and k in {2, 3} on integer
    # coordinates; these pin t and k of 1 and 4, points within 1e-6 of a
    # line and float weights.
    assert _tlines_wide_solve_text(inst_file, capsys).encode() == GOLDEN_TLINES_WIDE.read_bytes()


def test_solve_json_slowest_generator_tlines_bytes(inst_file, capsys):
    # t = 3, k = 4, n = 16: two-sided hops gave 1,985 searched candidates
    # at its largest radius and took about 54 s; rightward hops give 156.
    path = inst_file(generate(1, 16, 4, "tlines", t=3))
    assert main(["solve", "--input", path, "--format", "json"]) == EXIT_OK
    assert capsys.readouterr().out == (
        '{"lambda": 4.85412195974, "weight": 46.0, "centers": [{"x": 3.18391561938, "line": 1}, '
        '{"x": 13.25, "line": 1}], "covered_blue": [0, 2, 7, 8, 11, 13, 14], "covered_red": []}\n')


def _pinned(path, headers) -> str:
    """The blocks of a golden file whose header line is in headers."""
    blocks = re.split(r"(?m)^(?=# )", path.read_text())
    return "".join(b for b in blocks if b.partition("\n")[0] in headers)


def test_solve_json_tlines_bytes_in_small_chunks(inst_file, monkeypatch, capsys):
    # With 64 cells a chunk holds one radius and a block of compatible
    # pairs eight; the pinned bytes must not depend on the split. Only the
    # cheaper pinned cases run: t = k = 4 of the wide pin and t or k = 3 of
    # the other take about 40 s together in blocks that small.
    monkeypatch.setattr(placement, "CELLS", 64)
    seeds = [seed for seed in range(32) if seed % 4 != 3]
    got = _tlines_wide_solve_text(inst_file, capsys, seeds)
    assert got == _pinned(GOLDEN_TLINES_WIDE, {f"# seed={seed}" for seed in seeds})
    cases = [case for case in _tlines_cases() if case[1] == case[2] == 2]
    got = _tlines_solve_text(inst_file, capsys, cases)
    assert got == _pinned(GOLDEN_TLINES, {"# seed={} t={} k={} n={}".format(*case) for case in cases})


GOLDEN_K1 = pathlib.Path(__file__).resolve().parent / "golden_k1_solve.txt"


def _k1_cases():
    """(seed, n, red fraction, coordinate range) of the pinned k = 1
    instances: n cycles over 100-400, the red fraction over 0.3-0.7 and the
    coordinate range over 6, 20 and 40, the smallest packing many
    coincident points."""
    for seed in range(12):
        yield seed, 100 + 100 * (seed % 4), (0.3, 0.5, 0.7)[seed // 4], (6, 20, 40)[seed % 3]


def _k1_solve_text(write, capsys) -> str:
    """`sofl solve --algorithm fast` on the maxblue-nored and `--algorithm
    fvd` on the allblue-minred copy of each pinned k = 1 instance, as json,
    under a `# seed=.. n=.. red=.. range=.. <algorithm>` header line."""
    parts = []
    for seed, n, red, span in _k1_cases():
        for variant, algorithm in (("maxblue-nored", "fast"), ("allblue-minred", "fvd")):
            path = write(generate(seed, n, 1, variant, red_fraction=red, coord_range=span))
            argv = ["solve", "--input", path, "--algorithm", algorithm, "--format", "json"]
            assert main(argv) == EXIT_OK
            parts.append(f"# seed={seed} n={n} red={red} range={span} {algorithm}\n"
                         + capsys.readouterr().out)
    return "".join(parts)


def test_solve_json_k1_bytes(inst_file, capsys):
    # The golden corpus pins only `--algorithm dp`, and the k = 1 oracle
    # stops at n = 12; these pin the numpy k = 1 kernels at n 100-400.
    assert _k1_solve_text(inst_file, capsys).encode() == GOLDEN_K1.read_bytes()


GOLDEN_LINE = pathlib.Path(__file__).resolve().parent / "golden_line_solve.txt"

# (variant, seed, n, k) of the pinned large single-line instances
LINE_CASES = [
    ("csofl", 0, 48, 2), ("csofl", 1, 64, 3), ("csofl", 2, 80, 4), ("csofl", 3, 96, 2),
    ("csofl", 4, 96, 3), ("csofl", 5, 72, 4), ("maxblue-nored", 6, 64, 2),
    ("allblue-minred", 7, 64, 2),
]


def _line_solve_text(write, capsys) -> str:
    """`sofl solve --format json` on each pinned single-line instance, under
    a `# <variant> seed=.. n=.. k=..` header line."""
    parts = []
    for variant, seed, n, k in LINE_CASES:
        path = write(generate(seed, n, k, variant))
        assert main(["solve", "--input", path, "--format", "json"]) == EXIT_OK
        parts.append(f"# {variant} seed={seed} n={n} k={k}\n" + capsys.readouterr().out)
    return "".join(parts)


def test_solve_json_line_bytes(inst_file, capsys):
    # The golden corpus pins `--algorithm dp` only at n <= 12; these pin the
    # batched line kernel at n 48-96 and k 2-4, reductions included.
    assert _line_solve_text(inst_file, capsys).encode() == GOLDEN_LINE.read_bytes()


GOLDEN_THIN = pathlib.Path(__file__).resolve().parent / "golden_discrete_thin.txt"

# Thin-ring seeds on which the chord recursion, while it checked a new site
# only against the three sites of its triangle, chose sites that were not
# pairwise compatible.
THIN_FAR_PAIR_SEEDS = (207, 504, 563, 608, 838, 901, 1327, 1369, 1388, 1426)


def _thin_solve_text(write, capsys) -> str:
    """`sofl solve --format json` on every valid thin-ring instance of seeds
    0..119 and of `THIN_FAR_PAIR_SEEDS`, under a `# seed=..` header line."""
    parts = []
    for seed in [*range(120), *THIN_FAR_PAIR_SEEDS]:
        if thin_ring_instance(seed) is None:
            continue
        path = write(thin_ring_text(seed))
        assert main(["solve", "--input", path, "--format", "json"]) == EXIT_OK
        parts.append(f"# seed={seed}\n" + capsys.readouterr().out)
    return "".join(parts)


def test_solve_json_discrete_thin_bytes(inst_file, capsys):
    # Generator sites lie on a circle; these pin the chord recursion on
    # nearly flat rings, where it must rule out far pairs on its own.
    assert _thin_solve_text(inst_file, capsys).encode() == GOLDEN_THIN.read_bytes()
