"""Consistency/PSNR metrics, PPM output and the command-line surface."""

import ctypes
import json
import os
import platform
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvring.cli import CSV_HEADER, main, parse_stack
from mvring.denoiser import pin_malloc_thresholds
from mvring.data import ground_truth_correspondence
from mvring.metrics import adjacent_pairs, consistency_metric, psnr, write_ppm
from mvring.reference import read_ppm
from mvring.tensor import load_mvt, save_mvt


class TestConsistency:
    def test_ground_truth_scores_near_zero(self, rset0):
        assert consistency_metric(rset0.images, rset0) <= 0.02

    def test_flat_shaded_views_score_exactly_zero(self):
        from mvring.data import Primitive, SceneSpec, render_views
        from mvring.geometry import ViewRing
        scene = SceneSpec(seed=-6, primitives=(
            Primitive("sphere", (0.0, 0.0, 0.0), (0.3, 0.3, 0.3), "red"),))
        rset = render_views(scene, ViewRing(f=8, W=32, H=32))
        # every corresponded pixel pair shares one flat colour
        assert consistency_metric(rset.images, rset) == 0.0

    def test_constant_offset_closed_form(self, rset0):
        # offset only the odd views: every corresponded pair then differs by
        # (c, c, c) on top of the (near-zero) base residual
        c = 0.04
        base = consistency_metric(rset0.images, rset0)
        odd = rset0.images.copy()
        odd[1::2] += c
        got = consistency_metric(odd, rset0)
        assert got == pytest.approx(c * np.sqrt(3.0), abs=base + 1e-9)

    def test_shape_mismatch(self, rset0):
        with pytest.raises(ValueError):
            consistency_metric(rset0.images[:, :16], rset0)

    def test_adjacent_pairs(self):
        assert adjacent_pairs(4) == [(0, 1), (1, 2), (2, 3), (3, 0)]


class TestPsnr:
    def test_identical_capped(self, rng):
        img = rng.uniform(0, 1, (4, 4, 3))
        assert psnr(img, img) == 99.0

    def test_mse_closed_form(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)  # MSE = 0.01 -> 20 dB
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_checker_inverse_zero_db(self):
        checker = np.indices((8, 8)).sum(0) % 2
        assert psnr(checker.astype(float), 1.0 - checker) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 2)))


class TestPpm:
    def test_roundtrip_quantized(self, tmp_path, rng):
        img = rng.uniform(0, 1, (6, 5, 3))
        p = tmp_path / "x.ppm"
        write_ppm(p, img)
        back = read_ppm(p)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-9

    def test_bytes_deterministic(self, tmp_path, rng):
        img = rng.uniform(0, 1, (4, 4, 3))
        write_ppm(tmp_path / "a.ppm", img)
        write_ppm(tmp_path / "b.ppm", img)
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    def test_header_format(self, tmp_path):
        write_ppm(tmp_path / "h.ppm", np.zeros((2, 3, 3)))
        raw = (tmp_path / "h.ppm").read_bytes()
        assert raw.startswith(b"P6\n3 2\n255\n")
        assert len(raw) == len(b"P6\n3 2\n255\n") + 18


    def _rewrite(self, tmp_path, raw):
        p = tmp_path / "bad.ppm"
        p.write_bytes(raw)
        return p

    def test_truncated_payload(self, tmp_path):
        write_ppm(tmp_path / "t.ppm", np.zeros((2, 3, 3)))
        p = self._rewrite(tmp_path, (tmp_path / "t.ppm").read_bytes()[:-1])
        with pytest.raises(ValueError, match="bad.ppm.*truncated"):
            read_ppm(p)

    @pytest.mark.parametrize("maxval", [b"0", b"256", b"65535", b"-1", b"x"])
    def test_maxval_out_of_range(self, tmp_path, maxval):
        p = self._rewrite(tmp_path, b"P6\n1 1\n" + maxval + b"\n" + bytes(6))
        with pytest.raises(ValueError, match="bad.ppm.*maxval"):
            read_ppm(p)

    @pytest.mark.parametrize("dims", [b"3", b"3 2 1", b"a 2", b"0 2", b"3 -2",
                                      b""])
    def test_malformed_dimensions(self, tmp_path, dims):
        p = self._rewrite(tmp_path, b"P6\n" + dims + b"\n255\n" + bytes(18))
        with pytest.raises(ValueError, match="bad.ppm.*dimensions"):
            read_ppm(p)


class TestStackParsing:
    def test_valid_stacks(self):
        assert parse_stack("aa") == {"enable_aa": True, "enable_dr": False,
                                     "enable_rg": False, "enable_air": False}
        full = parse_stack("aa+dr+rg+air")
        assert all(full.values())
        assert not any(parse_stack("none").values())

    def test_invalid_token(self):
        from mvring.cli import CliError
        with pytest.raises(CliError):
            parse_stack("aa+xx")
        with pytest.raises(CliError):
            parse_stack("aa+aa")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert main(["gen-data", "--out", str(out), "--seed", "0",
                 "--res", "32"]) == 0
    return out


class TestCliPipeline:
    def test_gen_data_writes_twelve_views(self, dataset_dir):
        """dataset_dir passes no --views: 12 is the default."""
        assert sorted(os.listdir(dataset_dir)) == ["depths.mvt", "images.mvt",
                                                   "manifest.json"]
        assert load_mvt(str(dataset_dir / "images.mvt")).shape == (12, 32, 32, 3)

    @pytest.mark.parametrize("res", ["30", "6", "0", "-4"])
    def test_gen_data_res_not_a_latent_multiple(self, tmp_path, capsys, res):
        out = tmp_path / "ds"
        assert main(["gen-data", "--out", str(out), "--res", res]) == 2
        if int(res) > 0:
            assert "not divisible by the latent factor 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("elevation", ["nan", "inf", "-inf", "up"])
    def test_gen_data_non_finite_elevation_is_config_error(self, tmp_path,
                                                            capsys, elevation):
        out = tmp_path / "ds"
        assert main(["gen-data", "--out", str(out),
                     f"--elevation={elevation}"]) == 2
        captured = capsys.readouterr()
        assert "--elevation must be a finite number" in captured.err
        assert "Warning" not in captured.err
        assert not out.exists()

    def test_gen_data_res_8_is_valid(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "ds"), "--views", "2",
                     "--res", "8"]) == 0

    def test_gen_data_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--out", str(a), "--seed", "3"]) == 0
        assert main(["gen-data", "--out", str(b), "--seed", "3"]) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_gen_data_random_elevation_is_the_seeded_draw(self, tmp_path):
        """--elevation random draws the scene's elevation in [-30, 30]
        degrees from its --seed, so a rerun draws the same one."""
        drawn = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["gen-data", "--out", str(out), "--seed", "5", "--views",
                         "2", "--res", "8", "--elevation", "random"]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            drawn.append(manifest["elevation_deg"])
        assert drawn[0] == np.random.default_rng(5).uniform(-30.0, 30.0)
        assert -30.0 <= drawn[0] <= 30.0
        assert drawn[1] == drawn[0]

    def test_train_sample_eval_roundtrip(self, dataset_dir, tmp_path):
        ck = tmp_path / "ck"
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(ck),
                     "--steps", "60", "--stop-loss", "0", "--log-every", "30",
                     "--stack", "aa+rg", "--channels", "8"]) == 0
        assert sorted(os.listdir(ck)) == ["checkpoint.json", "params.mvt",
                                          "train_log.csv"]
        log = (ck / "train_log.csv").read_text().splitlines()
        assert log[0] == CSV_HEADER
        assert len(log) == 3  # two logged rows
        sm = tmp_path / "samples"
        assert main(["sample", "--checkpoint", str(ck), "--out", str(sm),
                     "--steps", "4", "--guidance", "7.5", "--seed", "0"]) == 0
        ppms = [n for n in os.listdir(sm) if n.endswith(".ppm")]
        assert len(ppms) == 12
        manifest = json.loads((sm / "run.json").read_text())
        assert manifest["guidance"] == 7.5 and manifest["steps"] == 4
        assert manifest["malloc"] == pin_malloc_thresholds()
        assert main(["eval", "--dataset", str(dataset_dir),
                     "--samples", str(sm)]) == 0

    def test_sample_deterministic_bytes(self, dataset_dir, tmp_path):
        ck = tmp_path / "ck"
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(ck),
                     "--steps", "30", "--stop-loss", "0", "--log-every", "30",
                     "--stack", "none", "--channels", "8"]) == 0
        outs = []
        for name in ("s1", "s2"):
            sm = tmp_path / name
            assert main(["sample", "--checkpoint", str(ck), "--out", str(sm),
                         "--steps", "3", "--seed", "7"]) == 0
            outs.append(b"".join((sm / f"view_{i:02d}.ppm").read_bytes()
                                 for i in range(12)))
        assert outs[0] == outs[1]

    def test_missing_dataset_is_io_error(self, tmp_path):
        assert main(["train", "--dataset", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "ck")]) == 3

    @pytest.mark.parametrize("edit", [
        "json_list", "json_string", "string_W", "float_f", "string_elevation",
        "string_seed", "zero_f", "zero_W", "negative_H", "missing_distance",
        "bool_f"])
    def test_malformed_dataset_manifest_is_io_error(self, dataset_dir, tmp_path,
                                                    capsys, edit):
        ds = tmp_path / "ds"
        shutil.copytree(dataset_dir, ds)
        m = json.loads((ds / "manifest.json").read_text())
        if edit == "json_list":
            m = [m]
        elif edit == "json_string":
            m = "manifest"
        elif edit == "string_W":
            m["W"] = "32"
        elif edit == "float_f":
            m["f"] = 12.0
        elif edit == "string_elevation":
            m["elevation_deg"] = "a"
        elif edit == "string_seed":
            m["seed"] = "zz"
        elif edit == "zero_f":
            m["f"] = 0
        elif edit == "zero_W":
            m["W"] = 0
        elif edit == "missing_distance":
            del m["distance"]
        elif edit == "bool_f":
            m["f"] = True
        else:
            m["H"] = -8
        (ds / "manifest.json").write_text(json.dumps(m))
        assert main(["train", "--dataset", str(ds), "--out", str(tmp_path / "ck"),
                     "--steps", "1", "--stack", "aa"]) == 3
        assert "manifest" in capsys.readouterr().err
        assert not (tmp_path / "ck").exists()

    @pytest.mark.parametrize("edit", ["nan_pixel", "pixel_above_one", "nan_depth"])
    @pytest.mark.parametrize("cmd", ["train", "eval", "ablate"])
    def test_impossible_dataset_values_are_io_errors(
            self, dataset_dir, tmp_path, capsys, monkeypatch, cmd, edit):
        """A NaN or out-of-range pixel, or a NaN depth, exits 3 before a step
        trains or a sample is scored."""
        import mvring.denoiser as dn
        ds, out = tmp_path / "ds", tmp_path / "o"
        shutil.copytree(dataset_dir, ds)
        name = "depths.mvt" if edit.endswith("_depth") else "images.mvt"
        arr = load_mvt(str(ds / name))
        arr[3, 5, 7] = 7.0 if edit == "pixel_above_one" else np.nan
        save_mvt(str(ds / name), arr)
        steps = []
        monkeypatch.setattr(dn, "training_step", lambda *a: steps.append(a))
        if cmd == "eval":
            sm = tmp_path / "s"
            sm.mkdir()
            save_mvt(str(sm / "latents.mvt"), np.zeros((12, 3, 8, 8)))
            argv = ["eval", "--samples", str(sm), "--out", str(out)]
        else:
            argv = [cmd, "--out", str(out), "--steps", "1"]
        assert main(argv + ["--dataset", str(ds)]) == 3
        captured = capsys.readouterr()
        assert name in captured.err and "consistency" not in captured.out
        assert steps == [] and not out.exists()

    def test_malloc_thresholds_pinned_on_glibc(self):
        pinned = "mmap threshold 33554432 B, trim threshold 67108864 B"
        assert pin_malloc_thresholds() == (
            pinned if platform.libc_ver()[0] == "glibc" else "libc default")

    def test_malloc_left_on_libc_default_without_libc(self, tmp_path,
                                                      monkeypatch):
        from mvring.denoiser import ModelConfig, MvDenoiser, save_checkpoint

        def no_libc(*args, **kwargs):
            raise OSError("no libc")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert pin_malloc_thresholds() == "libc default"
        ck = tmp_path / "ck"
        save_checkpoint(MvDenoiser(ModelConfig(f=2, latent_h=4, latent_w=4,
                                               channels=8)), ck)
        assert main(["sample", "--checkpoint", str(ck), "--prompt", "a cube",
                     "--steps", "2", "--out", str(tmp_path / "s")]) == 0
        run = json.loads((tmp_path / "s" / "run.json").read_text())
        assert run["malloc"] == "libc default"

    def test_bad_stack_is_config_error(self, dataset_dir, tmp_path):
        assert main(["train", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "ck"), "--stack", "bogus"]) == 2

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_train_without_steps_is_config_error(self, dataset_dir, tmp_path,
                                                 capsys, steps):
        """The message names only the count that is below 1: ablate passes
        --steps as the log interval too, and has no --log-every to blame."""
        for cmd in ("train", "ablate"):
            assert main([cmd, "--dataset", str(dataset_dir),
                         "--out", str(tmp_path / cmd), "--steps", steps]) == 2
            err = capsys.readouterr().err
            assert "max_steps must be >= 1" in err and "log_every" not in err
            assert not (tmp_path / cmd).exists()

    def test_log_every_below_one_is_config_error(self, dataset_dir, tmp_path,
                                                 capsys):
        assert main(["train", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "o"), "--log-every", "0"]) == 2
        assert "log_every must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cmd", ["train", "ablate"])
    def test_channels_below_one_is_config_error(self, dataset_dir, tmp_path,
                                                capsys, cmd):
        assert main([cmd, "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "o"), "--channels", "0"]) == 2
        assert "channels must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["train", "ablate"])
    def test_one_channel_is_config_error(self, dataset_dir, tmp_path, capsys, cmd):
        # a norm over one channel maps every input to its bias
        assert main([cmd, "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "o"), "--channels", "1"]) == 2
        assert "channels must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--blocks", "0"), ("--blocks", "-1"), ("--lr", "nan"), ("--lr", "inf"),
        ("--lr", "0"), ("--lr", "-1"), ("--log-every", "5")])
    def test_bad_model_flags_are_config_errors(self, dataset_dir, tmp_path,
                                               capsys, flag, value):
        """--blocks and --lr are retired: the model is one block and the
        learning rate is part of the fixed recipe. ablate's --log-every is
        retired too: ablate reads only the final row, which train_loop
        always logs. So argparse refuses each flag, whatever its value."""
        cmd = "ablate" if flag == "--log-every" else "train"
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--dataset", str(dataset_dir),
                  "--out", str(tmp_path / "ck"), "--stack", "aa",
                  "--steps", "3", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "ck").exists()

    @pytest.mark.parametrize("cmd", ["train", "ablate"])
    def test_nan_stop_loss_is_config_error(self, dataset_dir, tmp_path, capsys,
                                           cmd):
        assert main([cmd, "--dataset", str(dataset_dir), "--out",
                     str(tmp_path / "o"), "--stop-loss", "nan"]) == 2
        assert "stop_loss must be a number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_diverged_training_is_invariant_error(self, dataset_dir, tmp_path,
                                                  capsys, monkeypatch):
        from mvring.denoiser import ModelConfig
        monkeypatch.setattr(ModelConfig, "lr", 1e300)
        with np.errstate(all="ignore"):
            assert main(["train", "--dataset", str(dataset_dir),
                         "--out", str(tmp_path / "ck"),
                         "--steps", "5", "--stack", "aa",
                         "--channels", "8"]) == 4
        assert "invariant violated" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--guidance", "nan"), ("--guidance", "inf"), ("--guidance", "-1"),
        ("--steps", "1001"), ("--steps", "1000000000000")])
    def test_bad_sample_args_are_config_errors(self, tmp_path, capsys, flag,
                                               value):
        from mvring.denoiser import ModelConfig, MvDenoiser, save_checkpoint
        ck = tmp_path / "ck"
        save_checkpoint(MvDenoiser(ModelConfig(f=2, latent_h=4, latent_w=4,
                                               channels=8)), ck)
        args = ["sample", "--checkpoint", str(ck), "--prompt", "a cube",
                "--steps", "2"]
        assert main(args + ["--out", str(tmp_path / "ok")]) == 0
        assert main(args + ["--out", str(tmp_path / "s"), flag, value]) == 2
        err = capsys.readouterr().err
        assert ("guidance" if flag == "--guidance" else "exceed") in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flag,value", [("--guidance", "nan"),
                                            ("--sample-steps", "1001")])
    def test_ablate_bad_sampling_args_fail_before_training(
            self, dataset_dir, tmp_path, flag, value):
        assert main(["ablate", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "o"), flag, value]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seeds", ["-1", "0,,1", "a", "", "0,0"])
    def test_ablate_bad_sample_seeds_fail_before_training(
            self, dataset_dir, tmp_path, capsys, seeds):
        assert main(["ablate", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "o"),
                     f"--sample-seeds={seeds}"]) == 2
        assert "--sample-seeds" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--stacks", "aa,aa"), ("--stacks", "aa+dr,dr+aa"),
        ("--stacks", "aa,bogus"), ("--stacks", "aa,"),
        ("--scans", "row-major,row-major")])
    def test_ablate_repeated_or_bad_entries_fail_before_training(
            self, dataset_dir, tmp_path, capsys, flag, value):
        assert main(["ablate", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "o"), f"{flag}={value}"]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit", [
        "unknown_key", "no_config", "bad_value", "retired_blocks", "zero_d_state",
        "unknown_scan_strategy", "p_2d_above_one", "retired_lr", "zero_f",
        "zero_latent_h", "retired_guidance", "retired_params", "zero_text_dim",
        "fractional_f", "zero_T", "string_enable_aa", "param_names_int",
        "param_names_mixed", "retired_heads_strides", "one_channel", "nan_param",
        "inf_param"])
    def test_bad_checkpoint_config_is_io_error(self, tmp_path, capsys, edit):
        """Configs that ModelConfig or the model it builds reject exit 3, as
        do checkpoints of the formats that had text-attention q/k and norm,
        attention heads and AIR strides, the training recipe's p_2d, p_drop,
        T and lr, the block count, or the fixed widths text_dim and d_state
        in the config. So do checkpoints whose parameters are not finite."""
        from mvring.denoiser import ModelConfig, MvDenoiser, save_checkpoint
        ck = tmp_path / "ck"
        save_checkpoint(MvDenoiser(ModelConfig(f=2, latent_h=4, latent_w=4,
                                               channels=8)), ck)
        manifest = json.loads((ck / "checkpoint.json").read_text())
        config = manifest["config"]
        if edit == "unknown_key":
            config["warp_factor"] = 9
        elif edit == "bad_value":
            config["channels"] = 0
        elif edit == "retired_blocks":
            config["blocks"] = 1                  # retired field, any value
        elif edit == "zero_d_state":
            config["d_state"] = 0                 # retired field, any value
        elif edit == "unknown_scan_strategy":
            config["scan_strategy"] = "zigzag"
        elif edit == "p_2d_above_one":
            config.update(p_2d=1.5, p_drop=0.1)   # retired fields, any value
        elif edit == "retired_lr":
            config["lr"] = 2e-3                   # retired field, any value
        elif edit == "zero_f":
            config["f"] = 0
        elif edit == "zero_latent_h":
            config["latent_h"] = 0
        elif edit == "retired_guidance":
            config["guidance"] = 7.5
        elif edit == "retired_params":
            manifest["param_names"] += ["block0.ca_norm.gain", "block0.ca_norm.bias",
                                        "block0.ca.w_q", "block0.ca.w_k"]
        elif edit == "zero_text_dim":
            config["text_dim"] = 0                # retired field, any value
        elif edit == "fractional_f":
            config["f"] = 12.5
        elif edit == "zero_T":
            config["T"] = 0                       # retired field, any value
        elif edit == "string_enable_aa":
            config["enable_aa"] = "no"
        elif edit == "param_names_int":
            manifest["param_names"] = 5
        elif edit == "param_names_mixed":
            manifest["param_names"] = [1, "a"]
        elif edit == "retired_heads_strides":
            config.update(n_heads=1, tau=2, rho=4)
        elif edit == "one_channel":
            config["channels"] = 1
        elif edit.endswith("_param"):
            flat = load_mvt(str(ck / "params.mvt"))
            flat[-1] = np.nan if edit == "nan_param" else np.inf
            save_mvt(str(ck / "params.mvt"), flat)
        else:
            del manifest["config"]
        (ck / "checkpoint.json").write_text(json.dumps(manifest))
        assert main(["sample", "--checkpoint", str(ck), "--out",
                     str(tmp_path / "s"), "--prompt", "a cube"]) == 3
        err = capsys.readouterr().err
        where = ("param_names" if edit.startswith("param_names") else
                 "params.mvt" if edit.endswith("_param") else "config")
        assert where in err
        named = {"nan_param": "head.b holds non-finite values",
                 "inf_param": "head.b holds non-finite values",
                 "zero_d_state": "'d_state'", "zero_text_dim": "'text_dim'",
                 "retired_blocks": "'blocks'", "retired_lr": "'lr'",
                 "unknown_scan_strategy": "unknown scan strategy",
                 "p_2d_above_one": "'p_2d'", "zero_T": "'T'",
                 "one_channel": "channels must be >= 2"}
        assert named.get(edit, "") in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("stack", ["aa", "aa+dr+rg+air"])
    def test_unknown_scan_strategy_checkpoint_is_io_error(self, tmp_path,
                                                          capsys, stack):
        from mvring.denoiser import ModelConfig, MvDenoiser, save_checkpoint
        ck = tmp_path / "ck"
        save_checkpoint(MvDenoiser(ModelConfig(
            f=2, latent_h=4, latent_w=4, channels=8, **parse_stack(stack))), ck)
        manifest = json.loads((ck / "checkpoint.json").read_text())
        manifest["config"]["scan_strategy"] = "zigzag"
        (ck / "checkpoint.json").write_text(json.dumps(manifest))
        assert main(["sample", "--checkpoint", str(ck), "--out",
                     str(tmp_path / "s"), "--prompt", "a cube"]) == 3
        assert "scan strategy" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_air_config_that_cannot_run_exits_before_training(
            self, tmp_path, capsys, monkeypatch):
        """24 px images give 6x6 latents, which air's strides 2 and 4 do not
        divide: refused when the configs are built, before the aa stack that
        precedes aa+air trains a step."""
        import mvring.denoiser as dn
        ds = str(tmp_path / "ds")
        assert main(["gen-data", "--out", ds, "--views", "3", "--res", "24"]) == 0
        steps = []
        monkeypatch.setattr(dn, "training_step", lambda *a: steps.append(a))
        for argv in (["ablate", "--stacks", "aa,aa+air"], ["train", "--stack", "air"]):
            out = tmp_path / argv[0]
            assert main(argv + ["--dataset", ds, "--out", str(out)]) == 2
            assert "strides 2,4 must divide" in capsys.readouterr().err
            assert not out.exists()
        assert steps == []

    def test_unknown_scan_strategy_flag_is_config_error(self, dataset_dir,
                                                        tmp_path, capsys):
        assert main(["ablate", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "o"), "--scans", "zigzag"]) == 2
        assert "scan strategy" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_train_scan_is_config_error(self, dataset_dir, tmp_path,
                                                capsys):
        """ModelConfig, not argparse, refuses the strategy: exit 2."""
        assert main(["train", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "ck"), "--scan", "zigzag"]) == 2
        assert "scan strategy" in capsys.readouterr().err
        assert not (tmp_path / "ck").exists()

    @pytest.mark.parametrize("extra", [None, ["a cube"], {"prompt": 5}])
    def test_bad_checkpoint_extra_is_io_error(self, tmp_path, capsys, extra):
        from mvring.denoiser import ModelConfig, MvDenoiser, save_checkpoint
        ck = tmp_path / "ck"
        save_checkpoint(MvDenoiser(ModelConfig(f=2, latent_h=4, latent_w=4,
                                               channels=8)), ck,
                        extra={"prompt": "a cube"})
        manifest = json.loads((ck / "checkpoint.json").read_text())
        if extra is None:
            del manifest["extra"]
        else:
            manifest["extra"] = extra
        (ck / "checkpoint.json").write_text(json.dumps(manifest))
        assert main(["sample", "--checkpoint", str(ck), "--out",
                     str(tmp_path / "s")]) == 3
        message = "not a string" if isinstance(extra, dict) else "no extra object"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_version_1_dataset_is_io_error(self, dataset_dir, tmp_path, capsys):
        """The retired layout: one .mvt per view, listed in the manifest."""
        ds = tmp_path / "ds"
        ds.mkdir()
        m = json.loads((dataset_dir / "manifest.json").read_text())
        m.update(version=1, azimuths_deg=[30.0 * i for i in range(12)],
                 image_files=[f"view_{i:02d}.mvt" for i in range(12)],
                 depth_files=[f"depth_{i:02d}.mvt" for i in range(12)])
        (ds / "manifest.json").write_text(json.dumps(m))
        for key, name in (("image_files", "images.mvt"), ("depth_files", "depths.mvt")):
            for fname, view in zip(m[key], load_mvt(str(dataset_dir / name))):
                save_mvt(str(ds / fname), view)
        assert main(["train", "--dataset", str(ds), "--out", str(tmp_path / "ck"),
                     "--steps", "1"]) == 3
        assert "manifest version 1 unsupported (want 2)" in capsys.readouterr().err
        assert not (tmp_path / "ck").exists()

    @pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe{}"],
                             ids=["not_json", "not_utf8"])
    @pytest.mark.parametrize("cmd", ["train", "sample"])
    def test_unparsable_manifest_is_io_error(self, tmp_path, capsys, cmd, text):
        (tmp_path / "manifest.json").write_bytes(text)
        (tmp_path / "checkpoint.json").write_bytes(text)
        src = ["--dataset", str(tmp_path)] if cmd == "train" \
            else ["--checkpoint", str(tmp_path)]
        assert main([cmd, *src, "--out", str(tmp_path / "o")]) == 3
        assert "unparsable manifest" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_per_parameter_checkpoint_is_io_error(self, tmp_path, capsys):
        """The retired layout: one .mvt per parameter under params/."""
        from mvring.denoiser import ModelConfig, MvDenoiser, save_checkpoint
        ck = tmp_path / "ck"
        model = MvDenoiser(ModelConfig(f=2, latent_h=4, latent_w=4, channels=8))
        save_checkpoint(model, ck, extra={"prompt": "a cube"})
        (ck / "params").mkdir()
        for name, p in model.named_params().items():
            save_mvt(str(ck / "params" / f"{name}.mvt"), p.data)
        os.remove(ck / "params.mvt")
        assert main(["sample", "--checkpoint", str(ck), "--out",
                     str(tmp_path / "s"), "--steps", "2"]) == 3
        assert "missing tensor file" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("cmd", ["sample", "ablate"])
    def test_non_finite_sample_is_invariant_error(self, tmp_path, capsys, cmd):
        ds, ck, out = tmp_path / "ds", tmp_path / "ck", tmp_path / "out"
        assert main(["gen-data", "--out", str(ds), "--views", "3",
                     "--res", "16"]) == 0
        train = ["--dataset", str(ds), "--steps", "5", "--channels", "4"]
        if cmd == "sample":
            assert main(["train", "--out", str(ck)] + train) == 0
            argv = ["sample", "--checkpoint", str(ck), "--steps", "2"]
        else:
            argv = ["ablate", "--stacks", "aa+dr+rg+air", "--sample-steps", "2",
                    "--sample-seeds", "0"] + train
        assert main(argv + ["--guidance", "1e308", "--out", str(out)]) == 4
        assert "non-finite latents" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_ablate_writes_nothing_when_a_late_sample_is_non_finite(
            self, dataset_dir, tmp_path, capsys, monkeypatch):
        import mvring.denoiser as dn
        real, calls = dn.ddim_sample, []

        def second_stack_nan(model, *a, **kw):
            calls.append(model.config.stack)
            z = real(model, *a, **kw)
            return z * np.nan if len(calls) == 2 else z

        monkeypatch.setattr(dn, "ddim_sample", second_stack_nan)
        out = tmp_path / "abl"
        assert main(["ablate", "--dataset", str(dataset_dir), "--out", str(out),
                     "--stacks", "none,aa", "--steps", "2",
                     "--channels", "4", "--sample-steps", "2",
                     "--sample-seeds", "0"]) == 4
        assert calls == ["none", "aa"]
        assert "non-finite latents" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["train", "ablate"])
    def test_dataset_dims_not_a_latent_multiple_is_config_error(
            self, tmp_path, capsys, cmd):
        from mvring.data import make_scene, render_views, save_dataset
        from mvring.geometry import ViewRing
        ds, out = tmp_path / "ds", tmp_path / "o"
        save_dataset(render_views(make_scene(0), ViewRing(f=2, W=18, H=16)),
                     str(ds), seed=0)
        assert main([cmd, "--dataset", str(ds), "--out", str(out),
                     "--steps", "2", "--channels", "4"]) == 2
        assert "image dims 16x18 not divisible by 4" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_latents_eval_is_io_error(self, dataset_dir, tmp_path,
                                                 capsys):
        sm = tmp_path / "s"
        sm.mkdir()
        z = np.zeros((12, 3, 8, 8))
        z[3, 1, 2, 5] = np.nan
        save_mvt(str(sm / "latents.mvt"), z)
        assert main(["eval", "--dataset", str(dataset_dir),
                     "--samples", str(sm)]) == 3
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "consistency" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--out", "o"],
        ["train", "--dataset", "d", "--out", "o"],
        ["sample", "--checkpoint", "c", "--out", "o"],
        ["ablate", "--dataset", "d", "--out", "o"],
        ["gradcheck"]], ids=lambda argv: argv[0])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                          argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed=-1"])
        assert exc.value.code == 2
        assert "argument --seed: want an integer >= 0" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        assert main(["sample", "--checkpoint", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "s")]) == 3

    def test_float32_latents_eval_like_their_float64_cast(self, dataset_dir,
                                                          tmp_path, rng):
        z = rng.uniform(-1, 1, (12, 3, 8, 8)).astype(np.float32)
        rows = []
        for name, arr in (("f32", z), ("f64", z.astype(np.float64))):
            sm = tmp_path / name
            sm.mkdir()
            save_mvt(str(sm / "latents.mvt"), arr)
            csv = tmp_path / f"{name}.csv"
            assert main(["eval", "--dataset", str(dataset_dir),
                         "--samples", str(sm), "--out", str(csv)]) == 0
            rows.append(csv.read_bytes())
        assert rows[0] == rows[1]

    def test_corrupt_samples_eval_error(self, dataset_dir, tmp_path):
        sm = tmp_path / "s"
        sm.mkdir()
        (sm / "latents.mvt").write_bytes(b"garbage")
        assert main(["eval", "--dataset", str(dataset_dir),
                     "--samples", str(sm)]) == 3

    @pytest.mark.parametrize("shape", [(4, 4), (3, 3, 4), (3, 3, 4, 4, 1)])
    def test_malformed_latents_eval_is_io_error(self, dataset_dir, tmp_path,
                                                capsys, shape):
        sm = tmp_path / "s"
        sm.mkdir()
        save_mvt(str(sm / "latents.mvt"), np.zeros(shape))
        assert main(["eval", "--dataset", str(dataset_dir),
                     "--samples", str(sm)]) == 3
        err = capsys.readouterr().err
        assert "latents.mvt" in err and "[f, 3, h, w]" in err

    def test_latents_of_another_ring_eval_is_config_error(self, dataset_dir,
                                                           tmp_path, capsys):
        sm = tmp_path / "s"
        sm.mkdir()
        save_mvt(str(sm / "latents.mvt"), np.zeros((2, 3, 4, 4)))
        assert main(["eval", "--dataset", str(dataset_dir),
                     "--samples", str(sm)]) == 2
        assert "samples decode to" in capsys.readouterr().err

    def test_missing_samples_eval_error(self, dataset_dir, tmp_path, capsys):
        sm = tmp_path / "s"
        sm.mkdir()
        assert main(["eval", "--dataset", str(dataset_dir),
                     "--samples", str(sm)]) == 3
        assert "latents.mvt" in capsys.readouterr().err

    def test_gradcheck_subsampled_passes(self):
        assert main(["gradcheck", "--max-entries", "2"]) == 0

    @pytest.mark.parametrize("flag,value", [
        ("--eps", "0"), ("--eps", "-1e-5"), ("--eps", "nan"), ("--eps", "inf"),
        ("--eps", "-inf"), ("--tol", "nan"), ("--tol", "inf"),
        ("--tol", "-inf"), ("--tol", "-1e-4")])
    def test_gradcheck_bad_eps_or_tol_is_config_error(self, capsys, flag,
                                                      value):
        assert main(["gradcheck", "--max-entries", "1", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be finite" in captured.err
        assert "gradcheck:" not in captured.out

    @pytest.mark.parametrize("entries", ["0", "-1"])
    def test_gradcheck_max_entries_below_one_is_config_error(self, capsys,
                                                             entries):
        assert main(["gradcheck", "--max-entries", entries]) == 2
        assert "--max-entries must be >= 1" in capsys.readouterr().err

    def test_ablate_tiny_smoke(self, dataset_dir, tmp_path):
        out = tmp_path / "abl"
        assert main(["ablate", "--dataset", str(dataset_dir), "--out", str(out),
                     "--stacks", "none,aa", "--steps", "20", "--stop-loss", "0",
                     "--channels", "8",
                     "--sample-steps", "2", "--sample-seeds", "0"]) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER
        assert len(rows) == 3
        assert rows[1].split(",")[1] == "none"
        assert rows[2].split(",")[1] == "aa"
        assert (out / "aa__spiral-bidirectional__s0" / "seed0" /
                "view_00.ppm").exists()
        run = json.loads((out / "run.json").read_text())
        assert run["malloc"] == pin_malloc_thresholds()

    def test_ablate_trains_rg_free_stacks_once(self, dataset_dir, tmp_path,
                                               monkeypatch):
        import mvring.denoiser as dn
        trained = []
        real = dn.train_loop

        def counting(batch, model, **kw):
            trained.append(model.config.stack)
            return real(batch, model, **kw)

        monkeypatch.setattr(dn, "train_loop", counting)
        out = tmp_path / "abl"
        assert main(["ablate", "--dataset", str(dataset_dir), "--out", str(out),
                     "--stacks", "aa,rg", "--scans",
                     "spiral-bidirectional,row-major", "--steps", "5",
                     "--stop-loss", "0", "--channels", "8",
                     "--sample-steps", "2", "--sample-seeds", "0,1"]) == 0
        assert trained == ["aa", "rg", "rg"]
        rows = (out / "ablation.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:3] for r in rows] == [
            ["aa__spiral-bidirectional__s0", "aa", "spiral-bidirectional"],
            ["aa__row-major__s0", "aa", "row-major"],
            ["rg__spiral-bidirectional__s0", "rg", "spiral-bidirectional"],
            ["rg__row-major__s0", "rg", "row-major"]]
        assert rows[0].split(",")[3:] == rows[1].split(",")[3:]
        spiral, row = out / "aa__spiral-bidirectional__s0", out / "aa__row-major__s0"
        names = sorted(os.path.relpath(os.path.join(d, n), spiral)
                       for d, _, files in os.walk(spiral) for n in files
                       if n.endswith(".ppm"))
        assert len(names) == 2 * 12
        assert all((spiral / n).read_bytes() == (row / n).read_bytes()
                   for n in names)


# Every numeric flag of every command. Each example sets one of them to a
# malformed or small valid value, on top of a tiny baseline run.
NUMERIC_FLAGS = {
    "gen-data": ["--views", "--res", "--seed", "--elevation"],
    "train": ["--steps", "--log-every", "--channels", "--seed", "--stop-loss"],
    "sample": ["--steps", "--seed", "--guidance"],
    "ablate": ["--steps", "--channels", "--seed", "--stop-loss", "--sample-steps",
               "--guidance"],
    "gradcheck": ["--max-entries", "--seed", "--tol", "--eps"],
}
FLAG_VALUES = ["nan", "inf", "-1", "0", "1e308", "", "1.5", "0.5", "1e-3",
               "1", "2", "3", "4", "8"]


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Baseline argv per command: 3 views at 16 px, 2 steps, 2 channels."""
    root = tmp_path_factory.mktemp("fuzz")
    ds, ck = str(root / "ds"), str(root / "ck")
    train = ["--steps", "2", "--channels", "2"]
    assert main(["gen-data", "--out", ds, "--views", "3", "--res", "16"]) == 0
    assert main(["train", "--dataset", ds, "--out", ck] + train) == 0
    return root, {
        "gen-data": ["gen-data", "--views", "3", "--res", "16"],
        "train": ["train", "--dataset", ds] + train,
        "sample": ["sample", "--checkpoint", ck, "--steps", "2"],
        "ablate": ["ablate", "--dataset", ds, "--stacks", "aa+dr+rg+air",
                   "--sample-steps", "2", "--sample-seeds", "0"] + train,
        "gradcheck": ["gradcheck", "--max-entries", "1"],
    }


def test_numeric_flags_list_every_numeric_flag():
    """Every flag that argparse parses as int, float or a seed, plus
    gen-data's --elevation, a number given as text."""
    from mvring.cli import _seed, build_parser
    commands = build_parser()._subparsers._group_actions[0].choices
    typed = {cmd: {a.option_strings[0] for a in p._actions
                   if a.type in (int, float, _seed) or a.dest == "elevation"}
             for cmd, p in commands.items()}
    assert {cmd: set(flags) for cmd, flags in NUMERIC_FLAGS.items()} == \
        {cmd: flags for cmd, flags in typed.items() if flags}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(cmd, flag) for cmd, flags in NUMERIC_FLAGS.items()
                        for flag in flags]),
       st.sampled_from(FLAG_VALUES))
def test_numeric_flag_gives_a_documented_exit_code(tiny_runs, case, value):
    (cmd, flag), (root, baseline) = case, tiny_runs
    out = os.path.join(root, f"out{len(os.listdir(root))}")
    argv = baseline[cmd] + ([] if cmd == "gradcheck" else ["--out", out])
    try:
        with np.errstate(all="ignore"):
            code = main(argv + [f"{flag}={value}"])
    except SystemExit as exc:       # argparse rejects the value's form
        code = exc.code
    assert code in (0, 2, 3, 4), (cmd, flag, value, code)
    assert code == 0 or not os.path.exists(out), (cmd, flag, value, code)
