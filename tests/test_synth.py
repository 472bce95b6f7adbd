"""Synthetic scene generation: determinism and structural guarantees."""
import hashlib
import math

import numpy as np
import pytest

from segfuse import SegfuseError, generate_scene
from segfuse import grid as grid_module
from segfuse import synth as synth_module
from segfuse.cli import main

from scenes import traced_peak


def test_same_seed_reproduces_everything_bitwise():
    a = generate_scene(42, 12, 10, 16, 5, 3, 0.2, 0.4)
    b = generate_scene(42, 12, 10, 16, 5, 3, 0.2, 0.4)
    assert np.array_equal(a.features.data, b.features.data)
    assert np.array_equal(a.gt.data, b.gt.data)
    assert np.array_equal(a.embeddings.vectors, b.embeddings.vectors)
    assert np.array_equal(a.evidence.mask_evidence.data, b.evidence.mask_evidence.data)
    assert np.array_equal(a.evidence.presence, b.evidence.presence)
    assert a.bank == b.bank


def test_different_seeds_differ():
    a = generate_scene(1, 8, 8, 8, 3, 2, 0.2, 0.4)
    b = generate_scene(2, 8, 8, 8, 3, 2, 0.2, 0.4)
    assert not np.array_equal(a.features.data, b.features.data)


def test_drift_zero_synonyms_equal_canonical():
    scene = generate_scene(7, 8, 8, 12, 4, 3, 0.0, 0.3)
    store = scene.embeddings
    for c in range(4):
        start, count = store.offsets[c]
        for j in range(count):
            assert np.array_equal(store.vectors[start + j], store.vectors[start])


def test_overlap_zero_features_equal_gt_embedding_bitwise():
    scene = generate_scene(7, 8, 8, 12, 4, 2, 0.0, 0.0)
    starts = [scene.embeddings.offsets[c][0] for c in range(4)]
    canon = scene.embeddings.vectors[starts]
    assert np.array_equal(scene.features.data, canon[scene.gt.data])


def test_overlap_zero_mask_logits_are_exact_margins():
    scene = generate_scene(3, 6, 6, 8, 3, 1, 0.0, 0.0)
    logits = scene.evidence.mask_evidence.data
    gt = scene.gt.data
    for c in range(3):
        hit = logits[:, :, c][gt == c]
        miss = logits[:, :, c][gt != c]
        assert (hit == np.float32(2.5)).all()
        assert (miss == np.float32(-2.5)).all()


def test_gt_labels_in_range_and_shapes():
    scene = generate_scene(11, 9, 13, 6, 4, 2, 0.1, 0.5)
    assert scene.gt.data.max() < 4
    assert scene.features.dims == (9, 13, 6)
    assert scene.evidence.mask_evidence.dims == (9, 13, 4)
    assert scene.evidence.presence.shape == (4,)
    assert scene.bank.num_classes == 4
    assert scene.embeddings.num_vectors == scene.bank.total_synonyms


def test_feature_grid_can_differ_from_evidence_grid():
    scene = generate_scene(5, 12, 12, 8, 3, 2, 0.2, 0.3,
                           feature_height=6, feature_width=7)
    assert scene.features.dims == (6, 7, 8)
    assert scene.evidence.mask_evidence.dims == (12, 12, 3)


def test_presence_tracks_occupancy_rank():
    scene = generate_scene(19, 16, 16, 8, 4, 1, 0.0, 0.0)
    occupancy = np.bincount(scene.gt.data.ravel(), minlength=4)
    order_occ = np.argsort(occupancy, kind="stable")
    order_z = np.argsort(scene.evidence.presence, kind="stable")
    assert np.array_equal(order_occ, order_z)


@pytest.mark.parametrize("overlap", [0.0, 0.3])
@pytest.mark.parametrize("value", [0, -2])
@pytest.mark.parametrize("flag", ["feature_height", "feature_width"])
def test_feature_grid_size_validation(flag, value, overlap):
    with pytest.raises(SegfuseError, match="scene dimensions must be >= 1") as err:
        generate_scene(0, 4, 4, 4, 2, 1, 0.0, overlap, **{flag: value})
    assert err.value.code == "bad_scene_size"


def test_parameter_validation():
    with pytest.raises(SegfuseError) as err:
        generate_scene(0, 0, 4, 4, 2, 1, 0.0, 0.0)
    assert err.value.code == "bad_scene_size"
    for drift, overlap in ((-0.1, 0.0), (0.0, -0.1)):
        with pytest.raises(SegfuseError) as err:
            generate_scene(0, 4, 4, 4, 2, 1, drift, overlap)
        assert err.value.code == "bad_scene_noise"


@pytest.mark.parametrize("changes, code", [
    ({"seed": -1}, "bad_scene_seed"),
    ({"synonyms_per_class": 11}, "bad_scene_size"),
    # numpy would refuse these arrays with a bare ValueError
    ({"height": 10**10, "width": 10**10}, "bad_scene_size"),
    ({"feature_height": 10**10, "feature_width": 10**10}, "bad_scene_size"),
    ({"dim": 10**20}, "bad_scene_size"),
    ({"drift": math.nan}, "bad_scene_noise"),
    ({"overlap": math.inf}, "bad_scene_noise"),
    ({"drift": 1e200}, "bad_scene_noise"),
    ({"overlap": synth_module.MAX_NOISE * 2}, "bad_scene_noise"),
])
def test_scene_arguments_carry_codes(changes, code):
    args = dict(seed=0, height=4, width=4, dim=4, num_classes=2,
                synonyms_per_class=1, drift=0.0, overlap=0.0)
    with pytest.raises(SegfuseError) as err:
        generate_scene(**{**args, **changes})
    assert err.value.code == code


def test_bank_is_parse_clean():
    from segfuse import parse_prompt_file
    from segfuse.prompts import format_prompt_file
    scene = generate_scene(23, 6, 6, 6, 5, 4, 0.3, 0.2)
    assert parse_prompt_file(format_prompt_file(scene.bank)) == scene.bank


# sha256 of every scene array, recorded from the earlier whole-array build of
# each scene, so they pin the bytes of the row-block build: the bench shapes (chain_upsample, refuse_cached_prior,
# sweep_competition) on seeds 1 and 104729, and small odd shapes with
# overlap 0, drift 0 and feature grids smaller and larger than the evidence.
# Arguments: seed, height, width, dim, classes, synonyms, drift, overlap,
# feature height, feature width.
SCENE_DIGESTS = {
    "chain_s1": ((1, 256, 256, 512, 150, 3, 0.2, 0.5, 64, 64), {
        "features": "1a13c87ad4babe4d4d1cdf24acce424f8ea0be3552e83e6afde9f49513121eab",
        "gt": "a4d386f6fe6f15d8196fe3fdc48b389b230993ba3cb82b1358382720d9f7655b",
        "mask_logits": "0026284b04760b708cd2ceb9900dfe335bb8dad87875b296ef366c9e55684527",
        "presence": "8d297d975bde279dfe26815edb913d0e43a8c19a635e6582c264c8aea981b852",
        "embeddings": "ad6f3dd59631809de76312b0eac31d05fbcb536a2fbba4cd23a0ac4cf027ee9a",
    }),
    "chain_s104729": ((104729, 256, 256, 512, 150, 3, 0.2, 0.5, 64, 64), {
        "features": "1dc94013979dec4e4a2dcaf04bbc1cf7b248ded406028cf3be2ccc6c40dfa276",
        "gt": "1aa28b9b86b91e62994cc9a808d5e0d1087507b5516b8ab3cb5e4450ce14537b",
        "mask_logits": "fbf88c481c8b4b5a84a350fb99bc6e07c0434b42f00607f47c051db0da78581e",
        "presence": "df161fba092da8f8e746b16b6ccecd68d6df6becb54aee440183c24392cb56c5",
        "embeddings": "689428ac81bb16f86ec4f608bed5d472eddce4c10275e460d51959cff3acc71e",
    }),
    "refuse_s1": ((1, 128, 128, 256, 150, 3, 0.2, 0.5, 32, 32), {
        "features": "b8b9235ce251235d507d9cde50ba2f8c6c10d4274a1212b600e95d55315f254b",
        "gt": "f79374f9112020720b25230197b1f20731264ad68eb5822e295ff5b6c3e79ec5",
        "mask_logits": "2b8f96ce5eb253a9125bb22838724a54f8219dcebd4d115d81e2c2ef30eae48e",
        "presence": "d91f6e6f6c52e2d6acf7e0a475217979c9e00d22898d00bad6a465423c8c19e2",
        "embeddings": "c23ce1f3a54a393480f3d664f886a2898335e0be99544963a9fe8b87737bd41e",
    }),
    "refuse_s104729": ((104729, 128, 128, 256, 150, 3, 0.2, 0.5, 32, 32), {
        "features": "55e1e2903acf5f6d855cd83c2e2337557c68600cac0ca08099ad0244179f6945",
        "gt": "c4380ba389ea749263365af5c3a170c6db76f49613dec11f4a7fc18fd78c3b02",
        "mask_logits": "07dd5d53b2cc1c79ac7df98a3ba6cc3a57811ef71071207bf4b02898b8a898c9",
        "presence": "f8b4dedc1a7e0a7f1a7481811c3ae66d4b6325a43303f983ab334ff6f9f9d4f7",
        "embeddings": "f702d07380bb5c5c61b23d20f616165888919c94f2243c79f4b880ffb728f08e",
    }),
    "sweep_s1": ((1, 64, 64, 64, 20, 3, 0.2, 0.5, None, None), {
        "features": "d3d1fbaf139b22a4fba1d602de9a525057d837ac7f668fc5b5097e6b2e70a701",
        "gt": "5c118447af897e0188ecac1b78ba0eb20f5aeb75f3414f348ebc59027ffa139c",
        "mask_logits": "9f196b82dc963a1e96f1ba3333b8b3692904530e7b15f224cd5aac45a39a1f39",
        "presence": "391f268f618a0be526d329315e778a8622c15ea90d025b344d84a7b17c99827b",
        "embeddings": "42cd53ef8fab4c06f10e04836427b0c48080a771b57e01f1174480e3b554b05f",
    }),
    "sweep_s104729": ((104729, 64, 64, 64, 20, 3, 0.2, 0.5, None, None), {
        "features": "486d7c9b3ee44903f0bfa97c332b96477b5767ff3ba1fc45da481e2db2c3839e",
        "gt": "8be60d38df3857a50a33def2d9d4226bc4c12e8792ead8c7016d0ec78b6e8e87",
        "mask_logits": "b597b3e393a4eb73fbb516093d9c4e404dfc28381375c1d7e4b430ea6c840e74",
        "presence": "6339b55907c5594af419b3b23e721dd72b46b8903e624583dbf23e781330b15a",
        "embeddings": "cbd1c2b92bfbb86de7418e91eb54214118a8f33a75e0d223d557d0d281ff59d4",
    }),
    "odd": ((7, 13, 11, 9, 5, 3, 0.3, 0.4, None, None), {
        "features": "229702e6b31e9f6018bdcb38253c7525eeffd8e9e5cc86349f9069a5777d9f24",
        "gt": "677bb7315d5ab80833d78e93779ebc7ccc7d154158f779d2b863b4565f89b41c",
        "mask_logits": "12dd56544cf2001d283ea06b3744bea501cc1ba145a3ff8dfcb6e73fbd77b62e",
        "presence": "d4ad47366097c9417b7dadb6a5d6b65b651b6950ae5758f0d436e21785262774",
        "embeddings": "6ad5bdd8580f1e4d2392e9d396c65cca27a1f4fb7d0b18ee2f7c31cd5c153e20",
    }),
    "odd_feature_down": ((5, 17, 9, 6, 4, 2, 0.1, 0.6, 7, 5), {
        "features": "2844a136677c1491739a97c0aaa1e090a3e92aa59b7b6218325a3f24f9ce6ed0",
        "gt": "9c43e34b4688a26c0b23bcb91718e30cf1c0b1a50c788b0345ec6fe2cfff7505",
        "mask_logits": "cd8e311336594cc2c59dcfbf24a05b7a1b0397644c4bbe31798b7a0e10f352a5",
        "presence": "0d33fa7da95546b5894bc4dbc5ecc2b5374ac14900f3cea8fd6ceaac29ec9d49",
        "embeddings": "e01595efce59de9c1b95e019365b39511f44c57942d0bba2340c5a9a7c4764a0",
    }),
    "odd_feature_up": ((13, 6, 5, 4, 3, 2, 0.2, 0.3, 9, 11), {
        "features": "e62310e1a63d434177be310404fa57f4776d84de94419239f92d9d65b3d72149",
        "gt": "1b288e6bfd872a3fdff0a1e786752b33ca7d5e8abebe82678c982202fc4d1a5e",
        "mask_logits": "e088a4c7a45463220d5241265b612e326178d7d373aeb47a9e08227ce23002f4",
        "presence": "0d48111943cb1c38081ba1cf666958e79ba351c801998964f435fa3cb248b656",
        "embeddings": "9fb7d88752eb99e7ce5894e2b967862f1a3e21608d00a435b588c72ea9a09f89",
    }),
    "overlap0": ((3, 9, 7, 8, 3, 2, 0.2, 0.0, None, None), {
        "features": "97c1d6bdc7a392d1a21691311363c09183653715f2679b6a964c7b3bfc94301c",
        "gt": "79414dea2b88d97741c135230d8c173fd0628b224920484b93972765a6330635",
        "mask_logits": "8b5f74f300dd35d3fe7a4400c05b88997b978caecdddfbfa1a678cedd6f931d6",
        "presence": "0f066e60c83d6d6be069321f7ba5944e35d06a8b285b17265f7208da35792a58",
        "embeddings": "4ef23591be2f6e6240b1aa7e663743e1c046310feffc4a11a51cb5b9d88bf24a",
    }),
    "drift0": ((11, 10, 15, 5, 6, 3, 0.0, 0.3, 12, 4), {
        "features": "7d8873f1d0e9fda00f24bc0180f8e3db166cd28159d293f59d6edc6d9e983a89",
        "gt": "bf52ad5dc48b37adaa8a6c1a129f00ad2f16c664bdfa5b17abdfd6163d529f45",
        "mask_logits": "cd37d7a89175837db90549dbaaf679e7c7bdcfec14ae9d2d2c4e7f08333d7f09",
        "presence": "2fb1be2aa98fac7c62f4a49066730fe05fc3f8fa80e81d136717ad62ed834c5f",
        "embeddings": "603d7aef9694831782b7a3314120d0243d022c7e37064b1e6fd5b99c298ef6cb",
    }),
}


def _scene(args):
    return generate_scene(*args[:8], feature_height=args[8], feature_width=args[9])


def _digests(scene):
    arrays = {"features": scene.features.data, "gt": scene.gt.data,
              "mask_logits": scene.evidence.mask_evidence.data,
              "presence": scene.evidence.presence,
              "embeddings": scene.embeddings.vectors}
    return {name: hashlib.sha256(arr.tobytes()).hexdigest()
            for name, arr in arrays.items()}


@pytest.mark.parametrize("name", sorted(SCENE_DIGESTS))
def test_scene_bytes_match_recorded_digests(name):
    args, digests = SCENE_DIGESTS[name]
    assert _digests(_scene(args)) == digests


def _gen_argv(args, out):
    """The `segfuse gen` command line of the scene that args describe."""
    seed, height, width, dim, classes, synonyms, drift, overlap, fh, fw = args
    argv = ["gen", "--seed", str(seed), "--height", str(height),
            "--width", str(width), "--dim", str(dim), "--classes", str(classes),
            "--synonyms", str(synonyms), "--drift", str(drift),
            "--overlap", str(overlap), "--out-dir", str(out)]
    if fh is not None:
        argv += ["--feature-height", str(fh), "--feature-width", str(fw)]
    return argv


_NAMES = ("features", "gt", "mask_logits", "presence", "embeddings")


def _payload_digests(out):
    """sha256 of the payload of every CFT1 file that `gen` wrote to out."""
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["prompts.txt"] + [f"{name}.cft1" for name in _NAMES])
    digests = {}
    for name in _NAMES:
        data = (out / f"{name}.cft1").read_bytes()
        digests[name] = hashlib.sha256(data[6 + 4 * data[5]:]).hexdigest()
    return digests


# The library fills whole arrays and `gen` streams the same blocks to its
# files; both must give the recorded bytes under every block height.
@pytest.mark.parametrize("budget, source", [
    ("one_row", "library"), ("default", "library"), ("one_block", "library"),
    ("one_row", "gen"), ("default", "gen"), ("one_block", "gen"),
], ids=["one_row", "default", "one_block",
        "gen_one_row", "gen_default", "gen_one_block"])
@pytest.mark.parametrize("name", ["refuse_s1", "odd", "odd_feature_down",
                                  "odd_feature_up", "overlap0"])
def test_scene_bytes_ignore_block_height(name, budget, source, monkeypatch,
                                         tmp_path):
    args, digests = SCENE_DIGESTS[name]
    if budget == "one_row":
        monkeypatch.setattr(grid_module, "_TILE_BYTES", 1)
    elif budget == "one_block":
        monkeypatch.setattr(grid_module, "_TILE_BYTES", 1 << 62)
    if source == "gen":
        assert main(_gen_argv(args, tmp_path)) == 0
        assert _payload_digests(tmp_path) == digests
    else:
        assert _digests(_scene(args)) == digests


def test_refuse_shape_default_blocks_are_partial():
    # the default-budget case above must really split every step into blocks
    _, height, width, dim, classes, _, _, _, fh, fw = SCENE_DIGESTS["refuse_s1"][0]
    for rows, row_bytes in (
            (height, width * classes * synth_module._GT_BLOCK_BYTES),
            (fh, fw * dim * synth_module._NOISY_BLOCK_BYTES),
            (height, width * classes * synth_module._NOISY_BLOCK_BYTES)):
        assert 1 < grid_module._row_tiles(rows, row_bytes)[0].stop < rows


def test_generate_scene_holds_no_full_float64_stack():
    args = SCENE_DIGESTS["chain_s1"][0]
    made = []
    peak = traced_peak(lambda: made.append(_scene(args)))
    scene = made[0]
    outputs = sum(arr.nbytes for arr in (
        scene.features.data, scene.gt.data, scene.evidence.mask_evidence.data,
        scene.evidence.presence, scene.embeddings.vectors))
    # one float64 (H, W, C) array is 75 MiB at this shape
    assert peak < outputs + 8 * 2**20


def test_gen_holds_no_mask_logit_grid(tmp_path):
    args, digests = SCENE_DIGESTS["chain_s1"]
    codes = []
    peak = traced_peak(lambda: codes.append(main(_gen_argv(args, tmp_path))))
    assert codes == [0]
    assert _payload_digests(tmp_path) == digests
    # the float32 mask logits are 37.5 MiB and the features 8 MiB at this shape
    height, width, classes = args[1], args[2], args[4]
    assert peak < height * width * classes * 4 / 2
