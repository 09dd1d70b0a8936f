"""Tests for the four sub-networks, the assembled model, and checkpoints."""

import tracemalloc

import numpy as np
import pytest

from saan import layers, network, ops, params
from saan.errors import CodecError, InventoryError, SaanError, ShapeError
from saan.network import Arch

from oracles import conv_block_bytes, naive_attention_weight


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def tiny():
    arch = Arch.tiny()
    p = params.init_params(arch, rng=np.random.default_rng(5))
    return arch, p


@pytest.fixture
def full():
    arch = Arch.default()
    p = params.init_params(arch, rng=np.random.default_rng(5))
    return arch, p


def subnet(x, p, arch, prefix):
    """Run one sub-network straight through the layer engine."""
    spec = {name: spec for name, spec, _ in arch.subnets()}[prefix]
    return layers.seq_forward(x, p, prefix, spec)[0]


class TestMfe:
    def test_full_arch_shapes_and_depths(self, rng, full):
        arch, p = full
        x = rng.uniform(0, 1, (1, 1, 64, 64)).astype(np.float32)
        f1, f2, f3 = network.model_forward(x, p, arch).features
        assert f1.shape == (1, 24, 16, 16)
        assert f2.shape == (1, 16, 16, 16)
        assert f3.shape == (1, 8, 16, 16)

    def test_zero_input_gives_zero_features(self, tiny):
        arch, p = tiny
        x = np.zeros((1, 1, 16, 16), dtype=np.float32)
        for f in network.model_forward(x, p, arch).features:
            np.testing.assert_array_equal(f, np.zeros_like(f))


class TestGsa:
    def test_rows_sum_to_one(self, rng, tiny):
        arch, p = tiny
        out = network.model_forward(rng.uniform(0, 1, (3, 1, 16, 16)), p, arch)
        g, logits = out.global_scores, out.global_logits
        assert g.shape == (3, 3) and logits.shape == (3, 3)
        np.testing.assert_allclose(g.sum(axis=1), np.ones(3), atol=1e-6)

    def test_zero_final_fc_gives_uniform(self, rng, tiny):
        arch, p = tiny
        p = dict(p)
        p["gsa.fc1.weight"] = np.zeros_like(p["gsa.fc1.weight"])
        p["gsa.fc1.bias"] = np.zeros_like(p["gsa.fc1.bias"])
        g = network.model_forward(rng.uniform(0, 1, (2, 1, 16, 16)), p, arch).global_scores
        np.testing.assert_array_equal(g, np.full((2, 3), 1.0 / 3.0))

    def test_size_independence(self, rng, tiny):
        arch, p = tiny
        for hw in ((16, 16), (24, 36), (9, 11)):
            g = network.model_forward(rng.uniform(0, 1, (1, 1) + hw), p, arch).global_scores
            assert g.shape == (1, 3)

    def test_too_small_raises(self, rng, tiny):
        arch, p = tiny
        with pytest.raises(ShapeError):
            network.model_forward(rng.uniform(0, 1, (1, 1, 4, 4)), p, arch)


class TestLsa:
    def test_shape_and_range(self, rng, tiny):
        arch, p = tiny
        out = network.model_forward(rng.uniform(0, 1, (2, 1, 16, 24)), p, arch)
        l, logits = out.local_maps, out.local_logits
        assert l.shape == (2, 3, 4, 6) and logits.shape == l.shape
        assert np.all(l > 0) and np.all(l < 1)

    def test_zero_final_head_gives_half(self, rng, tiny):
        arch, p = tiny
        p = dict(p)
        p["lsa.head2.weight"] = np.zeros_like(p["lsa.head2.weight"])
        p["lsa.head2.bias"] = np.zeros_like(p["lsa.head2.bias"])
        l = network.model_forward(rng.uniform(0, 1, (1, 1, 16, 16)), p, arch).local_maps
        np.testing.assert_array_equal(l, np.full_like(l, 0.5))


class TestAttentionAndFusion:
    def test_attention_identity_and_annihilation(self, rng):
        f = rng.uniform(-1, 1, (2, 4, 5, 5))
        ones_l = np.ones((2, 1, 5, 5))
        np.testing.assert_array_equal(ops.scale_broadcast_mul(f, np.ones(2), ones_l), f)
        np.testing.assert_array_equal(
            ops.scale_broadcast_mul(f, np.zeros(2), ones_l), np.zeros_like(f)
        )

    def test_attention_matches_brute_force(self, rng):
        f = rng.uniform(-1, 1, (2, 3, 4, 4))
        g = rng.uniform(0, 1, 2)
        l = rng.uniform(0, 1, (2, 1, 4, 4))
        np.testing.assert_array_equal(
            ops.scale_broadcast_mul(f, g, l), naive_attention_weight(f, g, l)
        )

    def test_fusion_upsamples_to_input_size(self, rng, full):
        arch, p = full
        a1 = rng.uniform(-1, 1, (1, 24, 16, 16)).astype(np.float32)
        a2 = rng.uniform(-1, 1, (1, 16, 16, 16)).astype(np.float32)
        a3 = rng.uniform(-1, 1, (1, 8, 16, 16)).astype(np.float32)
        d = subnet(ops.concat_channels([a1, a2, a3]), p, arch, "fn")
        assert d.shape == (1, 1, 64, 64)

    def test_fusion_penultimate_depth_16(self, full):
        arch, p = full
        assert p["fn.deconv1.weight"].shape[1] == 16

    def test_fusion_channel_mismatch(self, rng, full):
        arch, p = full
        p = dict(p)
        p["fn.conv0.weight"] = p["fn.conv0.weight"][:, :44]
        with pytest.raises(ShapeError, match="in_channel"):
            network.model_forward(rng.uniform(0, 1, (1, 1, 32, 32)), p, arch)


class TestModelForward:
    def test_density_matches_input_dims(self, rng, tiny):
        arch, p = tiny
        for hw in ((16, 16), (15, 17), (12, 20)):
            x = rng.uniform(0, 1, (1, 1) + hw)
            out = network.model_forward(x, p, arch)
            assert out.density.shape == (1, 1) + hw

    def test_outputs_contract(self, rng, tiny):
        arch, p = tiny
        out = network.model_forward(rng.uniform(0, 1, (2, 1, 16, 16)), p, arch)
        np.testing.assert_allclose(out.global_scores.sum(axis=1), np.ones(2), atol=1e-6)
        assert np.all(out.local_maps > 0) and np.all(out.local_maps < 1)
        assert out.local_maps.shape == (2, 3, 4, 4)
        assert len(out.features) == 3

    def test_lsa_disabled_equals_forced_ones(self, rng, tiny):
        arch, p = tiny
        x = rng.uniform(0, 1, (1, 1, 16, 16))
        out = network.model_forward(x, p, arch, lsa_enabled=False)
        assert out.local_maps is None and out.local_logits is None

        feats = [subnet(x, p, arch, f"mfe.branch{i}") for i in (1, 2, 3)]
        g = ops.softmax(subnet(x, p, arch, "gsa"))
        ones_l = np.ones((1, 1, 4, 4))
        weighted = [
            ops.scale_broadcast_mul(feats[i], np.ascontiguousarray(g[:, i]), ones_l)
            for i in range(3)
        ]
        manual = subnet(ops.concat_channels(weighted), p, arch, "fn")
        np.testing.assert_array_equal(out.density, manual)

    def test_gsa_disabled_forces_unit_scores(self, rng, tiny):
        arch, p = tiny
        x = rng.uniform(0, 1, (1, 1, 16, 16))
        out = network.model_forward(x, p, arch, gsa_enabled=False)
        assert out.global_scores is None and out.global_logits is None

        feats = [subnet(x, p, arch, f"mfe.branch{i}") for i in (1, 2, 3)]
        l = ops.sigmoid(subnet(x, p, arch, "lsa"))
        weighted = [
            ops.scale_broadcast_mul(feats[i], np.ones(1), l[:, i : i + 1])
            for i in range(3)
        ]
        manual = subnet(ops.concat_channels(weighted), p, arch, "fn")
        np.testing.assert_array_equal(out.density, manual)

    def test_deterministic(self, rng, tiny):
        arch, p = tiny
        x = rng.uniform(0, 1, (1, 1, 16, 16))
        d1 = network.model_forward(x, p, arch).density
        d2 = network.model_forward(x.copy(), dict(p), arch).density
        np.testing.assert_array_equal(d1, d2)

    @pytest.mark.parametrize("arch", [Arch.tiny(), Arch.default()], ids=["tiny", "default"])
    @pytest.mark.parametrize("hw", [(15, 17), (20, 12), (155, 203)])
    @pytest.mark.parametrize("gsa", [True, False])
    @pytest.mark.parametrize("lsa", [True, False])
    def test_cache_free_density_is_bitwise_equal(self, rng, arch, hw, gsa, lsa):
        # the cache-free forward pools in the conv epilogue and runs the
        # density head in fn.deconv1's; the kept one runs every layer
        p = params.init_params(arch, rng=np.random.default_rng(5))
        x = rng.uniform(0, 1, (1, 1) + hw).astype(np.float32)
        kept = network.model_forward(x, p, arch, lsa_enabled=lsa, gsa_enabled=gsa)
        free = network.model_forward(x, p, arch, lsa_enabled=lsa, gsa_enabled=gsa,
                                     keep_caches=False)
        assert kept.cache and free.cache == {}
        assert free.density.tobytes() == kept.density.tobytes()

    def test_bitwise_size_runs_several_blocks(self):
        # 155x203 pads to 156x204: the default mfe.branch1.conv0 (one
        # channel, k 9, full patch rows), mfe.branch1.conv1 (16 channels,
        # k 7 over 78x102, row taps only) and fn.deconv1 (16 channels, a
        # 3x3 conv with 4 * 16 outputs over 78x102, row taps only) each run
        # more than one block, and gsa.pool2 pools a 39x51 map
        d = Arch.default()
        assert d.mfe_branches[0][:2] == ((9, 16), (7, 20)) and d.fn_deconvs[-1] == 16
        assert len(list(ops._row_blocks(1, 156, *conv_block_bytes(1, 16, 9, 212, 4)))) > 1
        assert len(list(ops._row_blocks(1, 78, *conv_block_bytes(16, 20, 7, 108, 4)))) > 1
        assert len(list(ops._row_blocks(1, 78, *conv_block_bytes(16, 64, 3, 104, 4)))) > 1

    def test_cache_free_peak_memory_at_384x512(self, rng, full):
        # no full-resolution activation is written: the pools run in the
        # conv epilogues and the density head in fn.deconv1's
        arch, p = full
        x = rng.uniform(0, 1, (1, 1, 384, 512)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            network.model_forward(x, p, arch, keep_caches=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestModelBackward:
    def test_image_input_layers_skip_input_gradient(self, rng, tiny, monkeypatch):
        arch, p = tiny
        by_weight = {id(v): k[: -len(".weight")] for k, v in p.items() if k.endswith(".weight")}
        calls = {}
        real = ops.conv2d_backward

        def recording(gy, x, w, input_grad=True):
            calls[by_weight[id(w)]] = input_grad
            return real(gy, x, w, input_grad=input_grad)

        monkeypatch.setattr(ops, "conv2d_backward", recording)
        x = rng.uniform(0, 1, (2, 1, 16, 16))
        out = network.model_forward(x, p, arch)
        grads_out = {"density": np.ones_like(out.density),
                     "global_logits": np.ones_like(out.global_logits),
                     "local_logits": np.ones_like(out.local_logits)}
        grads = network.model_backward(grads_out, out, p)

        image_input = {"mfe.branch1.conv0", "mfe.branch2.conv0", "mfe.branch3.conv0",
                       "gsa.conv0", "lsa.conv0"}
        conv_layers = {
            f"{prefix}.{e[0]}" for prefix, spec, _ in arch.subnets() for e in spec if e[1] == "conv"
        }
        assert set(calls) == conv_layers
        assert {layer for layer, flag in calls.items() if not flag} == image_input
        assert set(grads) == set(p)

    @staticmethod
    def _walk(out, p):
        grads_out = {"density": np.ones_like(out.density),
                     "global_logits": np.ones_like(out.global_logits),
                     "local_logits": np.ones_like(out.local_logits)}
        return network.model_backward(grads_out, out, p)

    def test_caches_hold_post_activation_outputs(self, rng, tiny):
        arch, p = tiny
        out = network.model_forward(rng.uniform(0, 1, (2, 1, 16, 16)), p, arch)
        c = out.cache
        stacks = list(c["branch_caches"]) + [c["gsa_cache"], c["lsa_cache"], c["fn_cache"]]
        weighted = ("conv", "deconv", "fc")
        pairs = 0
        for caches in stacks:
            for entry, nxt in zip(caches, caches[1:]):
                if entry[0] in weighted and nxt[0] in weighted:
                    # the output the layer cached is the array the next one read
                    assert entry[3] is nxt[2]
                    pairs += 1
            for entry in caches:
                if entry[0] in weighted and entry[4] == "relu":
                    assert entry[3].min() >= 0
        assert pairs >= 8
        for i in range(3):
            assert c["branch_caches"][i][-1][3] is out.features[i]

    def test_grads_match_an_unfused_forward(self, rng, tiny, monkeypatch):
        # the parent-style forward: each weighted op, then a separate relu,
        # with the relu backward masking on the pre-activation it kept
        arch, p = tiny
        x = rng.uniform(0, 1, (2, 1, 16, 16))
        fused = network.model_forward(x, p, arch)
        fused_grads = self._walk(fused, p)

        pre_of = {}

        def unfused(op):
            def run(x_, w, b, relu=False):
                pre = op(x_, w, b)
                if not relu:
                    return pre
                y = np.maximum(pre, 0)
                pre_of[id(y)] = pre
                return y
            return run

        for name in ("conv2d", "conv2d_transpose", "fully_connected"):
            monkeypatch.setattr(ops, name, unfused(getattr(ops, name)))
        monkeypatch.setattr(ops, "relu_backward", lambda gy, y: gy * (pre_of[id(y)] > 0))
        oracle = network.model_forward(x, p, arch)
        oracle_grads = self._walk(oracle, p)

        assert len(pre_of) == sum(1 for _, spec, _ in arch.subnets()
                                  for e in spec if e[-1] == "relu")
        assert oracle.density.tobytes() == fused.density.tobytes()
        assert sorted(oracle_grads) == sorted(fused_grads)
        for name, g in fused_grads.items():
            assert g.tobytes() == oracle_grads[name].tobytes(), name

    @pytest.mark.parametrize("gsa, lsa", [(True, False), (False, True)])
    def test_reads_shapes_and_heads_from_the_outputs(self, rng, tiny, gsa, lsa):
        # an 18x22 image pads to 20x24: its backward must equal that of the
        # padded image with the density gradient zero-extended, and a head
        # switched off in the forward gets no gradient entries
        arch, p = tiny
        x = rng.uniform(0, 1, (2, 1, 18, 22))
        gd = rng.uniform(-1, 1, (2, 1, 18, 22))
        out = network.model_forward(x, p, arch, gsa_enabled=gsa, lsa_enabled=lsa)
        padded = network.model_forward(np.pad(x, ((0, 0), (0, 0), (0, 2), (0, 2)), "reflect"),
                                       p, arch, gsa_enabled=gsa, lsa_enabled=lsa)
        grads = network.model_backward({"density": gd}, out, p)
        want = network.model_backward(
            {"density": np.pad(gd, ((0, 0), (0, 0), (0, 2), (0, 2)))}, padded, p)
        off = {"gsa"} if not gsa else {"lsa"}
        assert set(grads) == {k for k in p if k.split(".")[0] not in off}
        assert sorted(grads) == sorted(want)
        for name, g in grads.items():
            assert g.tobytes() == want[name].tobytes(), name

    def test_cache_free_outputs_refused(self, rng, tiny):
        arch, p = tiny
        out = network.model_forward(rng.uniform(0, 1, (1, 1, 16, 16)), p, arch,
                                    keep_caches=False)
        with pytest.raises(SaanError, match="keep_caches"):
            network.model_backward({"density": np.ones_like(out.density)}, out, p)


class TestCount:
    def test_zero_map(self):
        np.testing.assert_array_equal(
            network.count_from_density(np.zeros((2, 1, 4, 4))), np.zeros(2)
        )

    def test_single_entry(self):
        d = np.zeros((1, 1, 3, 3))
        d[0, 0, 1, 2] = 3.5
        assert network.count_from_density(d)[0] == 3.5

    def test_float32_matches_float64_oracle(self, rng):
        d = rng.uniform(0, 0.01, (1, 1, 64, 64)).astype(np.float32)
        got = float(network.count_from_density(d)[0])
        want = float(d.astype(np.float64).sum())
        assert abs(got - want) < 1e-4


class TestCheckpoint:
    def test_round_trip_bitwise(self, tiny, tmp_path):
        arch, p = tiny
        path = tmp_path / "m.ck"
        params.save_checkpoint(p, path)
        q = params.load_checkpoint(path)
        assert sorted(q) == sorted(p)
        for name in p:
            np.testing.assert_array_equal(p[name], q[name])

    def test_round_trip_preserves_forward(self, rng, tiny, tmp_path):
        arch, p = tiny
        path = tmp_path / "m.ck"
        params.save_checkpoint(p, path)
        q = params.load_checkpoint(path)
        x = rng.uniform(0, 1, (1, 1, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(
            network.model_forward(x, p, arch).density,
            network.model_forward(x, q, arch).density,
        )

    def test_inventory_accepts_matching(self, tiny):
        arch, p = tiny
        params.validate_inventory(p, arch)

    def test_inventory_rejects_other_arch(self, tiny):
        arch, p = tiny
        with pytest.raises(InventoryError):
            params.validate_inventory(p, Arch.default())

    def test_inventory_names_missing_param(self, tiny):
        arch, p = tiny
        q = dict(p)
        del q["fn.conv0.weight"]
        with pytest.raises(InventoryError, match="fn.conv0.weight"):
            params.validate_inventory(q, arch)

    def test_corrupt_magic(self, tiny, tmp_path):
        arch, p = tiny
        path = tmp_path / "m.ck"
        params.save_checkpoint(p, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CodecError, match="magic"):
            params.load_checkpoint(path)

    def test_truncated_reports_offset(self, tiny, tmp_path):
        arch, p = tiny
        path = tmp_path / "m.ck"
        params.save_checkpoint(p, path)
        blob = path.read_bytes()[:20]
        path.write_bytes(blob)
        with pytest.raises(CodecError, match="offset"):
            params.load_checkpoint(path)


class TestInit:
    def test_deterministic_given_seed(self, tiny):
        arch, _ = tiny
        p1 = params.init_params(arch, rng=np.random.default_rng(9))
        p2 = params.init_params(arch, rng=np.random.default_rng(9))
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])

    def test_biases_zero_weights_scaled(self, tiny):
        arch, p = tiny
        for name, arr in p.items():
            if name.endswith(".bias"):
                np.testing.assert_array_equal(arr, np.zeros_like(arr))
        w = p["fn.conv0.weight"]
        fan_in = w.shape[1] * w.shape[2] * w.shape[3]
        assert w.std() == pytest.approx(np.sqrt(2.0 / fan_in), rel=0.5)

    def test_prefix_subset(self, tiny):
        arch, _ = tiny
        sub = params.init_params(arch, rng=np.random.default_rng(1), prefix="lsa.")
        assert sub and all(k.startswith("lsa.") for k in sub)
