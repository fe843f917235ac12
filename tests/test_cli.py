import argparse
import hashlib
import json
import math

import pytest

from belieflab import sweep, tilt_model
from belieflab.cli import _build_parser, run


def invoke(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


class TestStationary:
    def test_values_and_exit_code(self, capsys):
        code, out = invoke(capsys, ["stationary", "--r", "2", "--K", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["probs"][-1] == pytest.approx(0.51613, abs=5e-6)
        assert sum(payload["probs"]) == pytest.approx(1.0, abs=1e-12)


class TestTransitions:
    def test_tilt_kernel(self, capsys):
        code, out = invoke(
            capsys, ["transitions", "--model", "tilt", "--lam", "1.0", "--beta", "0.2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p11"] > 0.5
        assert payload["stay"][0] > 0


class TestScenario:
    def test_lunar_heavy_censoring_processes_no_state_two_evidence(self, capsys):
        code, out = invoke(capsys, ["scenario", "lunar", "--beta", "0.35"])
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split()
        d_col = header.index("direction")
        flag_col = header.index("processed")
        processed_dirs = {
            row.split()[d_col]
            for row in lines[1:]
            if row.split()[flag_col] == "1"
        }
        assert processed_dirs == {"1"}

    def test_scenario_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, _ = invoke(
            capsys, ["scenario", "illusory", "--beta", "0.5", "--out", str(out_file)]
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "outcome,direction,strength,prob1,prob2,processed"
        assert len(lines) == 5

    def test_params_override(self, capsys):
        code, out = invoke(
            capsys,
            ["scenario", "coin", "--params", '{"alpha1": 0.7, "alpha2": 0.3, "J": 2}'],
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # header + three counts


class TestSweep:
    def test_csv_grid(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _ = invoke(
            capsys,
            [
                "sweep",
                "--metric",
                "delta_bayes",
                "--x",
                "p22",
                "--y",
                "gamma",
                "--x-grid",
                "0.1:0.9:5",
                "--y-grid",
                "0.2:0.8:4",
                "--p11",
                "0.8",
                "--K",
                "2",
                "--out",
                str(out_file),
            ],
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "p22,gamma,value,regular"
        assert len(lines) == 1 + 20
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(v >= -1e-12 for v in values)

    def test_default_grid_is_101_by_101(self, capsys, tmp_path):
        out_file = tmp_path / "full.csv"
        code, _ = invoke(
            capsys,
            [
                "sweep",
                "--metric",
                "delta_bayes",
                "--x",
                "p22",
                "--y",
                "gamma",
                "--p11",
                "0.8",
                "--K",
                "2",
                "--out",
                str(out_file),
            ],
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 1 + 101 * 101
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(v >= -1e-12 for v in values)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "sweep",
            "--metric",
            "regularity",
            "--x",
            "p11",
            "--y",
            "p22",
            "--x-grid",
            "0.2:0.8:3",
            "--y-grid",
            "0.2:0.8:3",
        ]
        _, first = invoke(capsys, args)
        _, second = invoke(capsys, args)
        assert first == second

    def test_unknown_metric_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            run(["sweep", "--metric", "bogus", "--x", "p11", "--y", "p22"])


class TestCensorPath:
    def test_symmetric_tilt_path(self, capsys):
        code, out = invoke(
            capsys,
            ["censor-path", "--model", "tilt", "--lam", "1.0", "--grid", "0:1:5"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,p11,p22,censored1,censored2"
        p11s = [float(line.split(",")[1]) for line in lines[1:]]
        assert p11s == sorted(p11s)


class TestOracle:
    def test_chain_json(self, capsys):
        code, out = invoke(
            capsys,
            [
                "oracle",
                "chain",
                "--p11",
                "0.8",
                "--p22",
                "0.8",
                "--K",
                "2",
                "--N",
                "200",
                "--trials",
                "20000",
                "--seed",
                "3",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 3
        assert payload["trials"] == 20000
        assert sum(payload["estimate"]) == pytest.approx(1.0, abs=1e-9)
        assert payload["estimate"][-1] == pytest.approx(16.0 / 21.3125, abs=0.02)

    def test_welfare_json(self, capsys):
        code, out = invoke(
            capsys,
            [
                "oracle",
                "welfare",
                "--model",
                "tilt",
                "--lam",
                "1.0",
                "--beta",
                "0.2",
                "--d",
                "3.0",
                "--N",
                "100",
                "--trials",
                "5000",
                "--seed",
                "1",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 < payload["estimate"] < 1.0
        assert payload["stderr"] > 0

    def test_ladder_json(self, capsys):
        code, out = invoke(
            capsys,
            [
                "oracle",
                "ladder",
                "--K",
                "2",
                "--N",
                "100",
                "--trials",
                "2000",
                "--seed",
                "4",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["estimate"]) == 3
        for row in payload["estimate"]:
            assert len(row) == 7  # 3K + 1 states
            assert sum(row) == pytest.approx(1.0, abs=1e-9)


class TestConfig:
    def test_config_fills_unset_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 3, "r": 2.0}))
        code, out = invoke(
            capsys, ["stationary", "--r", "2", "--config", str(cfg)]
        )
        assert code == 0
        assert json.loads(out)["K"] == 3

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 3}))
        code, out = invoke(
            capsys, ["stationary", "--r", "2", "--K", "1", "--config", str(cfg)]
        )
        assert code == 0
        assert json.loads(out)["K"] == 1

    def test_model_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {
                        "theta_count": 2,
                        "outcomes": ["up", "down"],
                        "probs": {"1": [0.7, 0.3], "2": [0.4, 0.6]},
                    },
                    "beta": 0.0,
                }
            )
        )
        code, out = invoke(capsys, ["transitions", "--config", str(cfg)])
        assert code == 0
        payload = json.loads(out)
        assert payload["p11"] == pytest.approx(0.7)

    @pytest.mark.parametrize(
        "argv, config, flags",
        [
            (
                ["censor-path", "--model", "tilt"],
                {"grid": "0:1:3", "lam": 2.5},
                ["--grid", "0:1:3", "--lam", "2.5"],
            ),
            (
                ["sweep", "--metric", "finite_n_ratio", "--x", "p11", "--y", "p22",
                 "--x-grid", "0.2:0.8:2", "--y-grid", "0.3:0.7:2"],
                {"N": 25, "sigma-log": 0.5},
                ["--N", "25", "--sigma-log", "0.5"],
            ),
            (
                ["oracle", "welfare", "--trials", "200"],
                {"model": "tilt", "lambda": 0.8, "seed": 5},
                ["--model", "tilt", "--lambda", "0.8", "--seed", "5"],
            ),
            (
                ["scenario", "coin"],
                {"params": {"alpha1": 0.6, "J": 3}, "beta": 0.3},
                ["--params", '{"alpha1": 0.6, "J": 3}', "--beta", "0.3"],
            ),
        ],
        ids=["censor-path", "sweep", "oracle-welfare", "scenario"],
    )
    def test_config_keys_are_the_flags(self, argv, config, flags, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        _, from_config = invoke(capsys, [*argv, "--config", str(cfg)])
        _, from_flags = invoke(capsys, [*argv, *flags])
        assert from_config == from_flags
        _, default = invoke(capsys, argv)
        assert from_config != default

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["sweep", "--metric", "delta_bayes", "--x", "p11", "--y", "p22"],
             {"gama": 0.5}),
            (["props-check"], {"seed": 9}),
            (["stationary", "--r", "2"], {"sigma_log": 0.5}),
        ],
    )
    def test_unknown_config_key_exits_nonzero(self, argv, config, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run([*argv, "--config", str(cfg)]) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(next(iter(config))) in captured.err

    def test_config_value_goes_through_the_flag_type(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 2.5}))
        with pytest.raises(SystemExit) as exc:
            run(["stationary", "--r", "2", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "invalid int value: '2.5'" in capsys.readouterr().err


# The flags each command reads; it takes no other.
_READS = {
    "stationary": "r K config",
    "transitions": "model lam beta config",
    "censor-path": "model lam grid out config",
    "sweep": "metric x y x-grid y-grid p11 p22 pi gamma rho sigma-log K d N beta"
    " model lam out config",
    "scenario": "name params beta out config",
    "oracle chain": "p11 p22 theta K N trials seed config",
    "oracle welfare": "model lam beta d lambda pi gamma rho sigma-log K N trials seed"
    " config",
    "oracle ladder": "model lam K N beta trials seed config",
    "props-check": "K config",
}


def _leaf_flags(parser, command=""):
    """Command -> the names of its arguments (help left out), leaves only."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            flags = {}
            for name, sub in action.choices.items():
                flags.update(_leaf_flags(sub, f"{command} {name}".strip()))
            return flags
    names = [
        a.option_strings[-1].lstrip("-") if a.option_strings else a.dest
        for a in parser._actions
        if not isinstance(a, argparse._HelpAction)
    ]
    return {command: sorted(names)}


class TestFlags:
    def test_each_command_takes_exactly_the_flags_it_reads(self):
        flags = _leaf_flags(_build_parser())
        assert flags == {c: sorted(names.split()) for c, names in _READS.items()}
        assert sum(map(len, flags.values())) == 68

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--metric", "delta_fixed", "--x", "p11", "--y", "d",
             "--p22", "0.7", "--beta-fixed", "0.2"],
            ["props-check", "--seed", "1"],
            ["censor-path", "--model", "tilt", "--beta", "0.2"],
            ["stationary", "--r", "2", "--gamma", "0.5"],
            ["scenario", "lunar", "--K", "3"],
            ["oracle", "chain", "--p11", "0.7", "--p22", "0.6", "--model", "lunar"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_a_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_beta_fixes_the_censoring_level(self, capsys):
        code, out = invoke(
            capsys,
            ["sweep", "--metric", "delta_fixed", "--x", "gamma", "--y", "d",
             "--x-grid", "0.2:0.8:3", "--y-grid", "1.5:6:2",
             "--beta", "0.2", "--model", "tilt"],
        )
        assert code == 0
        rows = sweep(
            "delta_fixed", "gamma", [0.2, 0.5, 0.8], "d", [1.5, 6.0],
            beta=0.2, model=tilt_model(1.0),
        )
        cells = [line.split(",") for line in out.splitlines()[1:]]
        assert [float(c[2]) for c in cells] == [r["value"] for r in rows]
        assert all(math.isfinite(r["value"]) for r in rows)


class TestErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stationary", "--r", "-1"], "r must be positive"),
            (["oracle", "welfare", "--model", "tilt", "--d", "0.5"], "d must be >= 1"),
            (["transitions"], "needs --model"),
            (["censor-path", "--model", "tilt", "--grid", "0:1"], "bad grid"),
            (["sweep", "--metric", "finite_n_ratio", "--x", "p11", "--y", "p22",
              "--N", "-1"], "N must be nonnegative"),
            (["sweep", "--metric", "delta_fixed", "--x", "p11", "--y", "p22",
              "--beta", "0.5"], "needs a signal model"),
            (["sweep", "--metric", "delta_bayes", "--x", "p11", "--y", "p22",
              "--pi", "1"], "pi must lie in (0, 1)"),
            (["oracle", "welfare", "--model", "lunar", "--pi", "1"],
             "pi must lie in (0, 1)"),
            (["scenario", "coin", "--params", '{"bogus": 1}'],
             "unexpected keyword argument 'bogus'"),
            (["scenario", "coin", "--params", "[1]"], "must be a JSON object"),
            (["scenario", "coin", "--params", '{"J": 2.5}'],
             "J must be an integer"),
            (["transitions", "--model", "tilt", "--lam", "1000"], "overflows"),
        ],
    )
    def test_bad_input_is_one_line_on_stderr(self, argv, message, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"belieflab {argv[0]}")
        assert captured.err.count("\n") == 1 and message in captured.err


class TestPropsCheck:
    def test_battery_passes(self, capsys):
        code, out = invoke(capsys, ["props-check"])
        assert code == 0, out
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)


# ---------------------------------------------------------------------------
# golden stdout: the sha256 of stdout for fixed argv, seeds included. The
# digests depend on the numpy build's floating-point results; a change that
# moves an ulp on purpose updates the digest and says so.

_GOLDEN_MODEL = {
    "theta_count": 2,
    "outcomes": ["lo", "mid", "hi"],
    "probs": {"1": [0.2, 0.3, 0.5], "2": [0.5, 0.3, 0.2]},
}
_SCENARIO_PARAMS = {
    "lunar": '{"effect": 1.5, "tension_ceiling": 5}',
    "illusory": '{"alpha": 3.0, "q": 0.1}',
    "coin": '{"alpha1": 0.6, "J": 3}',
    "autocorr": '{"draws": 4}',
}
_SWEEPS = {
    "delta_bayes": ["--x", "p22", "--y", "gamma", "--p11", "0.8", "--sigma-log", "0.5"],
    "delta_fixed": ["--x", "p11", "--y", "d", "--p22", "0.7", "--y-grid", "1.5:6:3"],
    "censor_gain": ["--x", "p11", "--y", "p22", "--gamma", "0.55"],
    "finite_n_ratio": [
        "--x", "p22", "--y", "K", "--p11", "0.8", "--y-grid", "1:3:3", "--N", "25"
    ],
    "lambda_bar": ["--x", "p11", "--y", "p22", "--K", "3"],
    "in_B": ["--x", "p22", "--y", "gamma", "--p11", "0.8", "--sigma-log", "0.5"],
    "regularity": ["--x", "p11", "--y", "p22"],
}


def _golden_cases() -> dict[str, list[str]]:
    cases = {}
    for name in ("tilt", "asymmetric_tilt", "lunar", "illusory", "coin"):
        cases[f"transitions-{name}"] = ["transitions", "--model", name, "--beta", "0.3"]
        cases[f"censor-path-{name}"] = [
            "censor-path", "--model", name, "--grid", "0:1.5:7"
        ]
    cases["transitions-json"] = ["transitions", "--model", "{json}", "--beta", "0.1"]
    for name, params in _SCENARIO_PARAMS.items():
        cases[f"scenario-{name}"] = ["scenario", name, "--beta", "0.3"]
        cases[f"scenario-{name}-params"] = ["scenario", name, "--params", params]
    for metric, extra in _SWEEPS.items():
        cases[f"sweep-{metric}"] = [
            "sweep", "--metric", metric,
            "--x-grid", "0.1:0.9:4", "--y-grid", "0.2:0.8:3", *extra,
        ]
    cases["sweep-beta-tilt"] = [
        "sweep", "--metric", "delta_fixed", "--x", "beta", "--y", "d",
        "--model", "tilt", "--x-grid", "0:1:4", "--y-grid", "1.5:6:3",
        "--sigma-log", "0.5",
    ]
    cases["oracle-welfare-tilt"] = [
        "oracle", "welfare", "--model", "tilt", "--beta", "0.2",
        "--N", "50", "--trials", "3000", "--seed", "1",
    ]
    cases["oracle-welfare-lunar"] = [
        "oracle", "welfare", "--model", "lunar", "--beta", "0.1",
        "--N", "50", "--trials", "3000", "--seed", "2", "--sigma-log", "0.5",
    ]
    cases["oracle-ladder"] = [
        "oracle", "ladder", "--K", "2", "--N", "60",
        "--trials", "2000", "--seed", "4", "--beta", "0.1",
    ]
    cases["oracle-chain"] = [
        "oracle", "chain", "--p11", "0.7", "--p22", "0.6", "--K", "3",
        "--N", "80", "--trials", "5000", "--seed", "3",
    ]
    cases["props-check"] = ["props-check", "--K", "2"]
    return cases


_GOLDEN_DIGESTS = {
    "transitions-tilt": "90e69dd9bee0a872c78338b7a54ac75f9d6dc9a8d947bd44274059e1fd26e231",
    "censor-path-tilt": "a9941bdac6965807ff6ab44b331a97437e9666d183ad4688629e704d875164cb",
    "transitions-asymmetric_tilt": "4cc6cb6b3989e62bcbe49a0c6a546c10765ff8298884ceb5f0806ea0a73fdd0a",
    "censor-path-asymmetric_tilt": "38ffac032267d5704d1bd128cd46e6d6c468c67b83de6c048111a2ab985d9c76",
    "transitions-lunar": "391b48c5010295bafbac17f696a4ffce1589fd71278034ccb44e57c565062a55",
    "censor-path-lunar": "c269e143b994e6e9be8d0bfdc9a71a7e37a5ba8d07768c8e1f117d72bce7d683",
    "transitions-illusory": "ed87aa8ec0e1f565917bfd9fab36c59d4b784e4378ad143d7806ffa51080484d",
    "censor-path-illusory": "ee9fec319b5e3d4dbdf7370ca0778dd8361f906664e960b6f97a4c988c32c731",
    "transitions-coin": "636a4001040754c8f1552df74bcf43723544450b2a98d0b9e2ae0495fa880e60",
    "censor-path-coin": "b60f24519702e77e4ef71af0a6842848f0f4384181b9af33421944f1f3edbbd3",
    "transitions-json": "c321310b8224d280ff4cb475e23dce50f6d6c747eddb9920f2225a6b24edc729",
    "scenario-lunar": "75c244735b740ccd486a34938c085515ec48a13288c8011b74e52021d7e05b18",
    "scenario-lunar-params": "ea904299cb7208964bf9ad35c6f33afbf49080afb0d5677b05a2d7f273dd6ef2",
    "scenario-illusory": "7ede51272c95c8662579e4ffffcac52f2045a4b6b9aeadf26abc40a020812edd",
    "scenario-illusory-params": "1e0b4218a02931db943289ea894af275d92caf822fd8a9dba91efaec52cbf3c6",
    "scenario-coin": "291f12a3e97e241f96b39b1ef7b0ae8b887d3fff92019cac617b8b15a439861b",
    "scenario-coin-params": "9e1406c9611205b9a162d54b386d1728c43c4b72700d56bd169c74937cad6d19",
    "scenario-autocorr": "9f04c61bd9222ff51a65935ed0be3ca4fe851ca82e5245d925122c50b0283a29",
    "scenario-autocorr-params": "8acf12207d6db79be082106981f1846a65651a899238d05a657d912700904744",
    "sweep-delta_bayes": "512879b646db860bcc4e1bf965755e5ea269b99c8755fe01a71760ec3706b7c1",
    "sweep-delta_fixed": "4e1a86053a1642b573f142f212737e9f114acf559b2aa61efdc1995e88feb41f",
    "sweep-censor_gain": "9f56eeb84bedcd1612c74068298245454a5276c8c9a98fba2a06596d210b9c6d",
    "sweep-finite_n_ratio": "f556d4f260977acc197340fdfb1d8bcd4fcb54fb245edcb8b9659718753d4fd6",
    "sweep-lambda_bar": "32306a3dc861152ba861c4045852a2f9f5455f7b5c7657201be38591c06a166d",
    "sweep-in_B": "9a6dc7815400c623eb2ba58057d6e3ebf811e9dab963c2f77e5b7dd80c59c6b2",
    "sweep-regularity": "72f4b69fb6eabec5a049bc52f8eb68b6613e4ebf618e59ae4baa4791027e4fa3",
    "sweep-beta-tilt": "6b698dc51caaba7514aab3e09e44354c31cffd2dd5bb08e6536cecfa1d09014a",
    "oracle-welfare-tilt": "b50fc5d3c97df51ac6c027b08b551acb3a012d51fc1f35b0cd5cf5edf43b7dc8",
    "oracle-welfare-lunar": "9ba91df964da85969c87b8a2bfa47b9d35c7275983e33b83c437fadd3f0805bd",
    "oracle-ladder": "be9da0fe587f55c6564dda3d8250d735dbdbc1074ddd160a43d7987ba615658b",
    "oracle-chain": "3175c471c8700d2d3d7c70174bd0be64c547f5f0b0633064e85b335c781361a9",
    "props-check": "f5727de36403145007ff270814d1c24fd52d8b8a8eddf9b3dcfd25a7e9b67bbf",
}


@pytest.mark.parametrize("case", sorted(_golden_cases()))
def test_golden_stdout(case, capsys, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(_GOLDEN_MODEL))
    argv = [str(model_path) if a == "{json}" else a for a in _golden_cases()[case]]
    code, out = invoke(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_DIGESTS[case]
