"""Byte-identical CLI output on a fixed corpus.

Each invocation below is pinned to its exit code and the sha256 of its
stdout.  Speedups must not change a result, so a pin that moves flags a
change of output; update a pin only together with a deliberate change of
what the command prints.  The ``analyze`` inputs are the golden quandle
and the tables ``construct`` writes for the specs in ``SPECS``, whose
output is pinned as well.  A ``homog`` spec names its group file as
``{dir}/<file>``; the files of ``GROUP_FILES`` are written there.
"""
import contextlib
import hashlib
import io

import pytest

from quandlekit.cli import main
from quandlekit.fixtures import fixture_text

# Every nontrivial class of S4 and S5, the S6 classes (2,2,2), (4,2), (5,1)
# and (6) (in the last three each translation's inverse is a translation
# too), affine quandles over Z_p, Z_3 x Z_3 and Z_2^3, and two coset spaces;
# the classes (2,2) and (3,1) of S4 and Z_6 are not connected.  On Z_2^3,
# alpha is the companion matrix of x^3 + x + 1.
# The S5 coset space is the benchmark's: S5 over <(1,2)>, alpha conjugation
# by (3,4,5); the S4 one is S4 over <(3,4)>, alpha conjugation by (1,2).
GROUP_FILES = {
    "s4.perm": "perm 4\n(1,2,3,4)\n(1,2)\n(3,4)\n",
    "s5.perm": "perm 5\n(1,2,3,4,5)\n(1,2)\n(3,4,5)\n",
}
SPECS = {
    "s4-211": "conj d=4 type=2,1,1",
    "s4-22": "conj d=4 type=2,2",
    "s4-31": "conj d=4 type=3,1",
    "s4-4": "conj d=4 type=4",
    "s5-2111": "conj d=5 type=2,1,1,1",
    "s5-221": "conj d=5 type=2,2,1",
    "s5-311": "conj d=5 type=3,1,1",
    "s5-32": "conj d=5 type=3,2",
    "s5-41": "conj d=5 type=4,1",
    "s5-5": "conj d=5 type=5",
    "s6-222": "conj d=6 type=2,2,2",
    "s6-42": "conj d=6 type=4,2",
    "s6-51": "conj d=6 type=5,1",
    "s6-6": "conj d=6 type=6",
    "z5-2": "affine orders=5 alpha=2",
    "z7-3": "affine orders=7 alpha=3",
    "z11-10": "affine orders=11 alpha=10",
    "z3z3": "affine orders=3,3 alpha=0,4,8,1,5,6,2,3,7",
    "z6-5": "affine orders=6 alpha=5",
    "z2z2z2": "affine orders=2,2,2 alpha=0,6,1,7,2,4,3,5",
    "homog-s4": "homog group={dir}/s4.perm sub=3 alpha=conj:(1,2)",
    "homog-s5": "homog group={dir}/s5.perm sub=2 alpha=conj:(3,4,5)",
}


def _invocations():
    out = [(f"construct {name}", ["construct", spec])
           for name, spec in SPECS.items()]
    for name in ["golden", *SPECS]:
        out.append((f"analyze {name}", ["analyze", name]))
        out.append((f"analyze {name} --json", ["analyze", name, "--json"]))
    out += [(f"scan --enumerate {n}", ["scan", "--enumerate", str(n)])
            for n in range(1, 9)]
    out += [(f"scan --enumerate {n} --racks",
             ["scan", "--enumerate", str(n), "--racks"]) for n in range(1, 7)]
    out.append(("scan --enumerate 7 --racks --bound 7",
                ["scan", "--enumerate", "7", "--racks", "--bound", "7"]))
    for mode in ("--sym", "--alt"):
        out += [(f"scan {mode} {d}", ["scan", mode, str(d)])
                for d in range(1, 8)]
    # the degree-8 and degree-9 scans, past the default scan bound
    for d in ("8", "9"):
        for mode in ("--sym", "--alt"):
            for extra in ([], ["--json"]):
                argv = ["scan", mode, d, "--bound", d, *extra]
                out.append((" ".join(argv), argv))
    # the 999! 1000-cycles pass the cap: exit 3 before the class is listed
    out.append(("--cap 1000 construct conj d=1000 type=1000",
                ["--cap", "1000", "construct", "conj d=1000 type=1000"]))
    return dict(out)


INVOCATIONS = _invocations()

PINS = {
    "--cap 1000 construct conj d=1000 type=1000": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "analyze golden": (0, "f78780496985c42b1d2d72a831adabd53cd4a2e9ca89b869778faef1d657f3a5"),
    "analyze golden --json": (0, "654a8e0d2fa105da7b7d24da14919936326138545087bf33d8e7c60eb6a3454a"),
    "analyze homog-s4": (0, "aec24c6b66f7e6afe10a107aac3e8e3f7bb44978e6f0d4ff9f579ea3244b9516"),
    "analyze homog-s4 --json": (0, "570f4526c5f5522e536e7d5d850d27e0001e3846bc4028c597666f0d13e8485e"),
    "analyze homog-s5": (0, "2af3418c0dac48bed624b91f48723873d72e91b170d4d084da716aa27af9e16d"),
    "analyze homog-s5 --json": (0, "f7b29f172c1e0c5b76b6183efed2a5e5d0891775c46288dc917ffa54e8476be4"),
    "analyze s4-211": (0, "581d1f6f5849021e0fe08d9b94dfe1931e0e4894c7bf82862e6b37d3366247b8"),
    "analyze s4-211 --json": (0, "9a9c16ddc8c4328e29a11c5f08c8f56dcd1ae055df17f6510f8abf4e3ca54276"),
    "analyze s4-22": (0, "26f26c07fb04ab8dff61039378717ffeee889d97811593194cda246e85145328"),
    "analyze s4-22 --json": (0, "a2e8a2ffd5927c5eadb0bfc33aedf4f6cbf6cf763414e01f5986d275d91b2946"),
    "analyze s4-31": (0, "478c0f29064c045dc96f969d6a38956f104d4fea8a168074731afed452cbb872"),
    "analyze s4-31 --json": (0, "b419c54cf4cc4693415d6e139a9a951f557195bd49a0e91c250423dd84cf7eb7"),
    "analyze s4-4": (0, "9f2378fd17540dc8f2374851f39c984c4d131293af26d8ab294f0d99044fa3dd"),
    "analyze s4-4 --json": (0, "d73264b8e049be9901625e8d2f2c86d89a4eb142a5fa1db03609741aef2dd83d"),
    "analyze s5-2111": (0, "6abe878672e0be446fc6497e3f8cb39efe4e3afbe7a7ac940b643aec75ec5af2"),
    "analyze s5-2111 --json": (0, "9209aee8aa4e75b081e2ce31a1fb481d073b0872f3f2156d24062d9cefce4cbd"),
    "analyze s5-221": (0, "e20d594214e6eeb13c79b5025605440339162d3c04cd5a7ce4b1f9c539193e7c"),
    "analyze s5-221 --json": (0, "95ebb789c634283dd273c31d5181f305a893cd42a3c4e7898d920ede6aa58d13"),
    "analyze s5-311": (0, "26b9ba64a2e27a0ae33d6f2d034731596813db8c200a1f121269ff96ad9ab267"),
    "analyze s5-311 --json": (0, "021ff4e62108b47b02ab0674ac8fc1ea8809a1074351c80ace64af1c4e13557d"),
    "analyze s5-32": (0, "ddb295e1d291bee130add21d97069a684c89dacd8868c1b0274f951635d2e9c3"),
    "analyze s5-32 --json": (0, "c2392a163b7bb14682f65b5de9acc9a7a46a017b65d3f89df1e9a5a80ec97e9d"),
    "analyze s5-41": (0, "2e838edae35c27e12725cd8a944ae1648f140fe138d9814130a7e17958a807a5"),
    "analyze s5-41 --json": (0, "5c04109fe30160086667dffc1b23db5cbe1606f4e23293608365556dd86665ec"),
    "analyze s5-5": (0, "a320b221ce4853519a8c7dd3c86e20e0919d0f6834d4e7e34ec636ab36cacb30"),
    "analyze s5-5 --json": (0, "18bc7dee0f3ae18194edb780513b0cab3f22beb888adb85a2246150cf726b1ac"),
    "analyze s6-222": (0, "9e49f2d169a0a94c8ba12bbcf0e8b7f9eca57167320e3855e8589a12d79d2fde"),
    "analyze s6-222 --json": (0, "455890bcd55a67b588aaed3e6c00577a9c02294092637abdd4a5056a88075e4e"),
    "analyze s6-42": (0, "9a47e1ca45dfc5ab4886437495a1d5c951ae4e43b39313500a6be8733e139ce6"),
    "analyze s6-42 --json": (0, "1d2861f7e5e3ac0c984920c14616bb5d5338243fdb61fb4eb3d19d2aea4f4e93"),
    "analyze s6-51": (0, "ff42d893a85344e9b09c714940e23b08a36f3b94618be04dcea028827e1bae2e"),
    "analyze s6-51 --json": (0, "867719115b09f1962f1e8ebfdd263bfbb527d524f2725fe769c1114cc36b7d20"),
    "analyze s6-6": (0, "01a260ec9cf4cb2da059df5aa5ba64101b6f1b43da57a490c91d46c37b5815ce"),
    "analyze s6-6 --json": (0, "8d5c30ce23cebbf43160366602053932483b22054348e6596cfd310b8381b8e7"),
    "analyze z11-10": (0, "aecfe66076420e50f0b821643053d004872e0a3d2127b0f66c4d524279a0d2a8"),
    "analyze z11-10 --json": (0, "890c7b6c87994d873851cbdaf31a3d34f5d4979d73a71d24a86a40cf432bd5fc"),
    "analyze z2z2z2": (0, "6a1cebbeec02c0e098d0c9d53f58c171fcc856c29e39aee12696dc20e6300b97"),
    "analyze z2z2z2 --json": (0, "ec825cf8d955d67b40aef8b902d888f50518c280fe199d004bfdf29a1ebcd689"),
    "analyze z3z3": (0, "5666b45e5f3c3c8c8a7ca7945b8a02a7cda889296ab6edf48a406d9edac015c7"),
    "analyze z3z3 --json": (0, "a972e883f40cbe49a7d662f54be8b49fce0e1274bf408015d3eca029ea11df60"),
    "analyze z5-2": (0, "0ccf6fa03236033f70249da02b2e46da9a57db22163d25afb92e3282ad27c470"),
    "analyze z5-2 --json": (0, "811be5d04bb54a272fcec3c799681a5149bd7dd9cff02b1e76c16c5734fa0f63"),
    "analyze z6-5": (0, "a9b8eb0acff37f9dcbd295dc9951e0c1bb7ae6d6fed9d58f7c2bdb77bffea6bf"),
    "analyze z6-5 --json": (0, "81baf5510f72ece638ef9ae105449de110a79dc9f4fc20f291e97fd06e75135b"),
    "analyze z7-3": (0, "352ff365d4b88ec510461ab4dfc3b6d17ea06dfd1f342d422dfd5db9f65be4f5"),
    "analyze z7-3 --json": (0, "73b11155f4e1a8c5d28160d9dcb59122ae4360cc14b8d136a936ea772b95201b"),
    "construct homog-s4": (0, "d027dac46a0711f664a32e7bad8b8f09b5aa6574fd1c5602c7c91509a7d9c84a"),
    "construct homog-s5": (0, "401ec698970e895bc0cd4fd51b89f2104173bcb7fe08f0483e2a9aef1e82f23d"),
    "construct s4-211": (0, "a4414c32939cf4b39c5f592bac4cdf85fea6c96eff1be9abb9757e425297275d"),
    "construct s4-22": (0, "9ec2417fbefc009de56d4f1b946a794fd5b6324ac3335dfff0bcdd49779b3f38"),
    "construct s4-31": (0, "0f057c2165853e26eaaad19055382de1bba12bbf9a449157e45b8e6ec2f1131c"),
    "construct s4-4": (0, "ed93848de6a12f3edadc4afd3cd2148a98b1561a8c5dc5404c4be2a8029fcec4"),
    "construct s5-2111": (0, "3af615e190c1b78a5b1dcfce39671677f7d329641ecad3e546e2f62aa89a9db7"),
    "construct s5-221": (0, "951166098f17109f1672fcbf856b6872d155c075cc301a030d29b25fa6c009ad"),
    "construct s5-311": (0, "670db4f910aa7da3e7ae95c79558bd1008d7dcb306ebcc0df8a72cbfd6b52dcf"),
    "construct s5-32": (0, "2a00d2ca4c542b3fba167cbb20611c6e7a4fcede5981362d99a049ce8c6623d2"),
    "construct s5-41": (0, "44261303773ee2252ccea0483578f32f1d1bd3f707ad1af69d66bc46ec7cc91a"),
    "construct s5-5": (0, "0ff6df42b7655b5906beb2a5670c2d45124548a782cd943a12ea45ea478d8362"),
    "construct s6-222": (0, "098c144745af6436f96c48b2c2710a52ffe99c2f1d5ad1da8fef2f2ca2fe1c03"),
    "construct s6-42": (0, "74c48af0647ae10472dbd7119fd5c8b88b1316a4200f3064e4bc84372e3d2dc2"),
    "construct s6-51": (0, "c686fdc868f44b19d0091200a643753530055099717059fffd932e3f469a9262"),
    "construct s6-6": (0, "ccf69f47c32537666b7ce8da6b61314951c57e1337e853a21383d5b4dacc6f62"),
    "construct z11-10": (0, "c9db683ad19386f696e90dfb325b6b5a73fd5d930383aeaf3e94eaf1b563a5c5"),
    "construct z2z2z2": (0, "e6d93dbeb6558d9aec5018f479cfc8f1f4a1a5585527b1387a6ca0b2d8fe3e01"),
    "construct z3z3": (0, "8c109f2079147f8c526ff32f20ba4e2bc094b708fff394c4a45fc15a4706b014"),
    "construct z5-2": (0, "3266db3d366e692c8307f6ec06c77c77400b1f63ea383ae4485978b0135a0106"),
    "construct z6-5": (0, "c421f2dba40bad44ab33f5e794947f9d68aa3427178e09d43b42d4b25844d2ef"),
    "construct z7-3": (0, "d8f982a0c2281d855dfd5d66d9d4bf135aaca1c2cd91c94e5d6d96c00336e1a9"),
    "scan --alt 1": (0, "90ed4452c304454a47dc46767f2dd104635664df4894b719a6fd5efc9c614be1"),
    "scan --alt 2": (0, "6dc611fa340e91674800666ae44aac4cd1159f0787b003e614573f153bfeae79"),
    "scan --alt 3": (0, "e0fa5e8feecb4144311c95526af3786f30a40cf378ffb4c31f509519181653ed"),
    "scan --alt 4": (0, "7a6121d25013fac30e0ceb1e3b24475bccadd33c8b2d1efdcdb907636d222d09"),
    "scan --alt 5": (0, "f73351671372be396c4d2eb1abef5bd2f824a79749fdc1dfbab7ebc5a273a419"),
    "scan --alt 6": (0, "c4da0d7a3283c7284d986f5316f2ea7967f88b85f5e4e5cf86d3b0fbf7b32247"),
    "scan --alt 7": (0, "88f7aa657284e1cd5a47cbb9e8a3b4a5437264f02d010d25c9f954d4bdaea935"),
    "scan --alt 8 --bound 8": (0, "340a9d6d49fe05dd0bb82ae96802be451a897d32c1cd04d90ea0947ef744748c"),
    "scan --alt 8 --bound 8 --json": (0, "823f019a5dfc887cc91d8984480173f0fcd624a8f95b42bb551ce3ab5c945b6f"),
    "scan --alt 9 --bound 9": (0, "e52f15a71ccf0739c3b7f8592cd57175b1765e1898ca0ff2819175bd5969b62b"),
    "scan --alt 9 --bound 9 --json": (0, "7768c943458977aa10f347b40a8554df92ae88a8cf73544e484a366b01228ef0"),
    "scan --enumerate 1": (0, "949b074a29b3e989cdf7e8b4c6cce9dd903b377dd631944096ecadca5171e961"),
    "scan --enumerate 1 --racks": (0, "375ea04b62f8d2e8150e9a78ce359f5515e4effc6eb054d8a09172a1e713bc8b"),
    "scan --enumerate 2": (0, "f7555db03e21a12ea5282bfc4dde4bbb108b2e99fb63e70f6aa59c35d3e0bad6"),
    "scan --enumerate 2 --racks": (0, "34ea9d52324ab20297cd66fd9f3abb4b986f23388795f43603f8252923e6fab9"),
    "scan --enumerate 3": (0, "ac46e390d2f797eb6ab2adb104e01a459c4d09fea0a9533b6aa22a8ff82dd3d9"),
    "scan --enumerate 3 --racks": (0, "dacdf285be64c7c6839ad488f39c0c689cb6ba9d28b844a58f46a21afd8bc552"),
    "scan --enumerate 4": (0, "35cf207ecf0950f6dac1f6b5294ef5bbf8f1ed70d04264ef1b463b9b9f93da25"),
    "scan --enumerate 4 --racks": (0, "d44b6f7a0ad42b466e6e89cde41215d4366c237deadc4a4f96fc2baa89570b16"),
    "scan --enumerate 5": (0, "48adf0f9ccae25ac2160888fa48f9d12c7bc7136f446b5b328a85f051a95a351"),
    "scan --enumerate 5 --racks": (0, "1186dbfe75487fe88473af8583ca69bcd2a8920612f6037ffca5dfa1db4a7865"),
    "scan --enumerate 6": (0, "c4383b278862225067ebc4537ae960ba309270e75881fe7a44409105efc6b7ab"),
    "scan --enumerate 6 --racks": (0, "b562dc6ea5473ca713ad5c84ae9d1edc6b8ab7ad3640dc48d55fe9d03310a7d4"),
    "scan --enumerate 7": (0, "0abc55ff81e125f1574ae5528bf6b1953626d1c8aa8c6183724030562786013a"),
    "scan --enumerate 7 --racks --bound 7": (0, "3944290077d545af51f79a81891494d75e103518f5cc900706424dc194a26c33"),
    "scan --enumerate 8": (0, "2bfd2514e358bb74c2bb2ec0ef847f75b5c09cea1734247886e755843dfa54d7"),
    "scan --sym 1": (0, "b3747f813578528b222740da41c3fadd9e7a68adef33a8769c5af972f4046708"),
    "scan --sym 2": (0, "e6a6a9289894e3a010bc15aa9c2341e133affbbe033da296de77c0cc0f91a0e3"),
    "scan --sym 3": (0, "39940b9eaf5553b0634a1c5aca35cf426675d952aa92dacfe7b2991d98aa805f"),
    "scan --sym 4": (0, "3da5f15db4d73c1fac44129b29a8016f7b84f7e8f241df6de77cbd8b2a7f2eb1"),
    "scan --sym 5": (0, "5f72cb09ed14aaa1037e5f7a57c9574adad7b8c47ecb0cb74b7dcbe29068429e"),
    "scan --sym 6": (0, "a4db707eeadbd1eb8fba9a32f7cabbe3d2f8628dc4f31195625c758653e1e391"),
    "scan --sym 7": (0, "7c299989721c0b3f365a06d0304eb8400bf96bb9fe886e407f38361c3e39cb91"),
    "scan --sym 8 --bound 8": (0, "38ddfc2fe1c235831af9a2e4ea6796278ac0b206e29600fd51188b532bda1142"),
    "scan --sym 8 --bound 8 --json": (0, "b26e55e81123665ee0935f4afe2e02d65c15c8e6b7b2f11ac90b6b9354b6d74a"),
    "scan --sym 9 --bound 9": (0, "baddf1e7fdbe998ce16f5d5337f2f3e2c365aeffa965faf80ae435de6e0278e5"),
    "scan --sym 9 --bound 9 --json": (0, "caedd9379fc6d0533715e41df23ebc6338d37fa83e4c00a86f281ca04ba2da43"),
}


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input path of each ``analyze`` target, written by ``construct``."""
    root = tmp_path_factory.mktemp("pins")
    for name, text in GROUP_FILES.items():
        (root / name).write_text(text)
    paths = {"dir": root, "golden": root / "golden.perm"}
    paths["golden"].write_text(fixture_text())
    for name, spec in SPECS.items():
        paths[name] = root / f"{name}.rtbl"
        spec = spec.format(dir=root)
        assert _run(["--out", str(paths[name]), "construct", spec])[0] == 0
    return {name: str(path) for name, path in paths.items()}


def run_pinned(key, inputs):
    argv = INVOCATIONS[key]
    if argv[0] == "analyze":
        argv = [argv[0], inputs[argv[1]], *argv[2:]]
    else:
        argv = [arg.format(dir=inputs["dir"]) for arg in argv]
    return _run(argv)


def test_every_invocation_is_pinned():
    assert sorted(PINS) == sorted(INVOCATIONS)


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=pytest.mark.slow) if " 9 --bound 9" in key else key
    for key in sorted(INVOCATIONS)])
def test_output_pin(key, inputs):
    assert run_pinned(key, inputs) == PINS[key]
