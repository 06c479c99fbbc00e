"""Golden corpus: every CLI artifact, pinned by sha256 across a settings grid.

C10 checks that two runs of the same code agree; this checks that the code
agrees with the version that recorded the digests below.  The grid is two
simulation seeds x {single, ward} x normalize off/on x {drop-incomplete,
forward-fill}, over a tiny simulated panel with a few rows removed so that
the two missing-data policies give different windows.  A mismatch is a
change in output bytes: find the cause rather than re-recording.

A second, smaller corpus pins ``fix --input --date`` on a panel that spans
two calendar years, and ``report`` and ``detect`` on each of its two
``--window`` labels; one bank there is too sparse in the first year and is
dropped from that year's window only.  ``--year`` must give the same bytes as
the matching ``--window`` label.

A third corpus pins ``report``, ``detect`` and ``cluster`` on a hand-written
panel whose rate, tenor and date texts are spelled the ways a plain
``digits[.digits]`` reader would not take: signs, exponents, padding, tabs and
lowercase tenors.

A fourth corpus pins ``simulate`` itself on the ``linear`` and ``shock`` base
curves and on a run with every strategy kind: an offset with more than six
decimals, a negative offset that drives cells to the zero clamp, and
overlapping day ranges where later strategies win.

Every corpus is also run inside ambient decimal contexts of 4 and 9 digits
and one that spells exponents in lowercase, where it must give the same
digests: no artifact may read the caller's context.
"""

from __future__ import annotations

import hashlib
import sys
from decimal import ROUND_DOWN, Context, localcontext

import pytest

from ratefix import panel
from ratefix.cli import main
from ratefix.panel import _PLAIN_RATE

SEEDS = (3, 8)
# (date, bank) rows removed from the simulated panel; every bank keeps more
# than the default 90% coverage, so no bank is dropped under either policy
GAPS = {
    ("2008-01-03", "BANK01"),
    ("2008-01-04", "BANK03"),
    ("2008-01-05", "BANK03"),
    ("2008-01-10", "BANK06"),
}
FORMATS = {
    "cluster": ("--out-format", ("newick", "json", "dot")),
    "detect": ("--format", ("text", "json")),
}


def _runner(tmp_path, out):
    def run(name, *argv):
        target = tmp_path / name
        assert main([*argv, "--output", str(target)]) == 0, name
        out[name] = target.read_bytes()
    return run


def artifacts(seed, tmp_path):
    """Run the grid for one seed; map each artifact's name to its bytes."""
    out = {}
    run = _runner(tmp_path, out)
    run(
        "simulate.csv", "simulate", "--banks", "6", "--days", "24", "--seed", str(seed),
        "--strategy", "single-offset:2:0.05", "--strategy", "collusive:4+5:3.02:5-15",
    )
    out["simulate.truth.csv"] = (tmp_path / "simulate.truth.csv").read_bytes()
    rows = out["simulate.csv"].decode().splitlines(keepends=True)
    panel = tmp_path / "panel.csv"
    panel.write_text("".join(r for r in rows if tuple(r.split(",")[:2]) not in GAPS))

    for fmt in ("text", "json"):
        run(f"fix.{fmt}", "fix", "--input", str(panel), "--date", "2008-01-03", "--format", fmt)
    for policy, tag in (("drop-incomplete", "drop"), ("forward-fill", "ffill")):
        window = ["--input", str(panel), "--policy", policy]
        for fmt in ("text", "csv"):
            run(f"report.{tag}.{fmt}", "report", *window, "--format", fmt)
        for linkage in ("single", "ward"):
            for normalize in ((), ("--normalize",)):
                stem = f"{tag}.{linkage}.{'norm' if normalize else 'raw'}"
                for command, (flag, formats) in FORMATS.items():
                    for fmt in formats:
                        run(f"{command}.{stem}.{fmt}", command, *window,
                            "--linkage", linkage, *normalize, flag, fmt)
    return out


def digests(seed, tmp_path):
    made = artifacts(seed, tmp_path)
    return {name: hashlib.sha256(data).hexdigest() for name, data in made.items()}


GOLDEN = """
3 simulate.csv d2e47d31fa7dd4ab0152aee701a4fa98ff4f23c201b6b3d63bc883366d5a9df5
3 simulate.truth.csv de759767869cfb49022369e2331f43a38197a59bee0fe268658c4b6f3bb88434
3 fix.text f675230614fe89aabadd097d368e4391ecb11cf617150c6e76f3600219a09645
3 fix.json f44b6027a8cf698d42ec50346dabafe0921e60eccdf90f1ccf85d385a808bbed
3 report.drop.text 23f0b881d932cc349e4d562c83db9f231fc9401f57e2c52eee2000d3e1567306
3 report.drop.csv 16121265c035d801f5e956e9b7b471c089619615556d7b10ffa702daca5b6c28
3 cluster.drop.single.raw.newick 28a1625f60d6a9c3e3b0c96de3edbd52376f229594e586bd0afe57d566f31bcf
3 cluster.drop.single.raw.json 3993e84dd6d2b056a916dfaffb5cf1c81afb9a35892341526421f48fdf068b50
3 cluster.drop.single.raw.dot 681dc93782658baa74a458a8813051846aed6d4ff228682c97b1487efb24a4af
3 detect.drop.single.raw.text 7df4b38eb61ecc7bbe332392661fa1dd123260c15b9b37bc95e6af27eb292e64
3 detect.drop.single.raw.json d67835a4be381330a7a702f7b6dd33729992dad11d3492ec47e307593815719e
3 cluster.drop.single.norm.newick f082b4d11f2469b2d423b48f1566facf7f9e4eec0126a487800ff834a8ed321c
3 cluster.drop.single.norm.json 3dea8b788830600d1cfe286ab3bec38eee08ac64224b4102b71a5ea8d39fafce
3 cluster.drop.single.norm.dot 7943d783e3b49db936a2594073195b2b50bb1839ba75fc285bd79a92cfbdbe84
3 detect.drop.single.norm.text f51b64b54fd92a32c163543b0d54ec774c108e52ac72944f66c280acab4050c8
3 detect.drop.single.norm.json 0c00e8fdd8738780587b13576ed6acf8b879c672a22a77c330c33fff8839fac9
3 cluster.drop.ward.raw.newick c4e9ff2156660810e1157e252d366fb8b0c06fa76f1e543a652159c5b4ee9a5d
3 cluster.drop.ward.raw.json 740ac19eca7c9ad81696523ede52c4f1078099de3310da22ce1ae2bde027bd3a
3 cluster.drop.ward.raw.dot 10731a53a749a6d6d9830ca0ac7d02479cd98193dabd375954fa56a0cbfacd88
3 detect.drop.ward.raw.text 396815c2b4b0f0e3c5dba76a11c1e2b2866230b85d140bec8740c8cd55744ab7
3 detect.drop.ward.raw.json d0792270ebf580c06a02568a92c04669143767cc089f8c44e5e5b40d29a962e7
3 cluster.drop.ward.norm.newick 0b39a9944e0c0a1562bb9b68b9eae7b0b35930e748acfb83f44830ac0b2659e4
3 cluster.drop.ward.norm.json 8ff698bd1e8e90f84781d4bb59e224efd405a6070a782074158ec2867d4f6e15
3 cluster.drop.ward.norm.dot d0751b0b56ee73ade456a9183e7fd4596ca6aa3d80e29715c4ebae2cc0a5c41b
3 detect.drop.ward.norm.text 1e827747b66a73e261d1a72f68ff7335c4070b365143c8f7c3d7be857413e078
3 detect.drop.ward.norm.json cca744f340b685acbe55d8b258982d2b7575bdcc3f9a41b03d0a4d849a6f9380
3 report.ffill.text 8ae609ab852037b24f864c7281ccf32f776c9a4b31f05e55ec48174161264c49
3 report.ffill.csv d1a71107f34a2945860122e349863e0696396d5784dcc17f1b3e49c604b6190a
3 cluster.ffill.single.raw.newick e82c38e3d2244505de45aad9ad24da8a46902931abac7fdf715cc94a9e357817
3 cluster.ffill.single.raw.json 05a0bb55c4fecf599d4ece475902d82f8e1d45b6e64bb7f72239c10f0ea71d99
3 cluster.ffill.single.raw.dot a959758dc0436f907ac4f80b6d26c15e3879b1d70f7c043e4d0ddde718cde66f
3 detect.ffill.single.raw.text 14e0f619f32bb0620a429111a06817f1768c03298dace9fb163f2a307b80c8cc
3 detect.ffill.single.raw.json 43717ddab53a491437dec396692102d1d64197e5c640a5d53330930cf41a94f3
3 cluster.ffill.single.norm.newick 483be4cae17002d544fd1d065f4af866d991c81c7c98a5c00086fae89e524928
3 cluster.ffill.single.norm.json 5d299234bc790c351e2ae95264815feaddba0464c5c1807a38041d3b447f72e8
3 cluster.ffill.single.norm.dot 4f0a7126452742445d3ecf927ad634a4034bbd1dd3360f34e9aa48ce52ede7d5
3 detect.ffill.single.norm.text 19b355796ddf0feedeb2a47fec5d75d92ed3847d3b066c43f7c39a9b7d8c08b6
3 detect.ffill.single.norm.json a9be1959ba9e0b6c6e803a35e7122569e811628204998a895ac82b044b015ad7
3 cluster.ffill.ward.raw.newick 3373acf4a03eaf5620ce94eaa2f87981550813eea8b84c2c3d2bd26dd465ae1f
3 cluster.ffill.ward.raw.json 675f84877940b7145749614b2bbaf9d94be30a11a51b177340c156168d902ec1
3 cluster.ffill.ward.raw.dot 096137972625e691ab7f06f047c7d3430be3b7f6cd3688305d1740b8ae67c09c
3 detect.ffill.ward.raw.text b09dbae6e76e7ac8a5def889fd381d8059aacd83ea04856edcdcaafdbcf82369
3 detect.ffill.ward.raw.json c01a394d775dbda6273ab9531140464c2599c42fdf9c0788de21b036bcc4ef24
3 cluster.ffill.ward.norm.newick cc0557cc4953d555ebcf255bbacfe1bf6fa0139e63cdf8803430080deef6b912
3 cluster.ffill.ward.norm.json 730828433192802dd7864c1c351ddd9fcfda34aabf30b933f192927b76a1d893
3 cluster.ffill.ward.norm.dot de47ce3e14b45a028e0da260376ce967e9f2d5c9b4c99763e2309de5a9900f29
3 detect.ffill.ward.norm.text 91d1d3b793b95cff4a00d84162baf0027aef990e6f6268a1cae977cedd25ed4d
3 detect.ffill.ward.norm.json 7a66812785ea24b30d365e250effbaa0aad1a4e41845056d1ccacef587aa624c
8 simulate.csv 575c7958aee86b8128c578c2765dcadbb7273631a23049f142927c01835af23a
8 simulate.truth.csv de759767869cfb49022369e2331f43a38197a59bee0fe268658c4b6f3bb88434
8 fix.text eb5ae88b5443e75154d1a37f5da6732194401455d20f73d1d22dc0242dadbbcf
8 fix.json f5aec92dd906b8e1837d3b8bcaf8ceadd0b7e44b318a549caae443411526f8b2
8 report.drop.text 9e5f37f20bf288ba6dfbacd165185c023d28611a20143dd5fe2162b0fc693a6f
8 report.drop.csv b6cd73dd1effd86f7d790f14312cd19e0168fe4e66027c2e5e691056c2582008
8 cluster.drop.single.raw.newick 9aec6175df12b73e5f946c14e286e1b88ba12b587f81b5a99ba28bd486163669
8 cluster.drop.single.raw.json a1f846bf3ee1cdf82d6a8f8b47179323be2e0ab2be6dd15a90b724989f627bda
8 cluster.drop.single.raw.dot ccbdc217bc75e0d054c6e201da1491b76e076669b51f1eebdd3133b75b9ab326
8 detect.drop.single.raw.text 1e1bb6b596f29760696e5ac755a7e7e541600590e4de73cb34431791c9786446
8 detect.drop.single.raw.json 6ee88e6fa52cd1fdeb6774eaa9451ee52d775fcd77199562cb6a2b04c631c929
8 cluster.drop.single.norm.newick 4a02630924be039df0a1c74e3b03767005570a54c459222a808d245f2a91879f
8 cluster.drop.single.norm.json 589c455674a1984fca40a6aea45e5e66b1970a7bb50595c9da223a76f4cb83ee
8 cluster.drop.single.norm.dot f6161bcdb6ceb455ad8a68ede405655c7021f34763c2b9435c2bf6ed268aef93
8 detect.drop.single.norm.text b9b4a04ccb855b5926ba6553c13352f56a569152b0cb4be098883d47450b6388
8 detect.drop.single.norm.json 7ed49112ee98be453efccc9b5e3665ef567bd6afab9815be4b28ff2b168e0580
8 cluster.drop.ward.raw.newick dc12e59848761a1996976ef4d362bdce23976532c3615c7817a4b2284f5ca8c7
8 cluster.drop.ward.raw.json 23bbb6239f30601a4990b0cf8b5b9a997b30216e25459a9347863420b4b5082f
8 cluster.drop.ward.raw.dot 002967c9cb69712911272ea5ab8e283423f5a7908d2c5ed3d143b85a45eb59a3
8 detect.drop.ward.raw.text 727c65f816316ce9d107af9241c90371260200df3a5130b7bd4cf02cdac49974
8 detect.drop.ward.raw.json 580ab0ddee26571e5e5ff1a63bc056117ea27707cd49cddc6601182d1ce85669
8 cluster.drop.ward.norm.newick cc9aad8cda59d275a25fd9fc3906c9efa6dd3ee8bc76a0ef1e966cd8bb44cd82
8 cluster.drop.ward.norm.json b2a7632ba7107b5003e901b90cb28c0f5bbedbe6780863f4038a65498cc698bd
8 cluster.drop.ward.norm.dot 99bb8dd65834b1ecdf6367260729ea0ce96ef8f0fe8a749b400d6f7b24bef3b4
8 detect.drop.ward.norm.text f9ba5444c1675859d0a2342051967b50f220b1655fda9f3d863be7e8e746092c
8 detect.drop.ward.norm.json 6a1b67df913358131df253b9d5f7c9e5d428b170f03ad3ea64920dc137dd2e04
8 report.ffill.text 263c32b05ae14e55e2753416e49a35abc0d7bf0a400c84f1a21d7bc79a8e3f29
8 report.ffill.csv a282c86698c56b7f2e816279f70bf05c5209b8f49238b2ecb8859573868b7bd8
8 cluster.ffill.single.raw.newick c796f28aad79e9ec121f08c314936dfd300f5a44cc8ec72e8a883673308575a5
8 cluster.ffill.single.raw.json 262040d8315d39726648ac70ee56cb54f9d372484e1324f54a2255b135e1189a
8 cluster.ffill.single.raw.dot 69368f7a360571031fffd3dd2d4f6a8e228a31543b85a99685a43a6102de6453
8 detect.ffill.single.raw.text c3c5e62930c808425599b6b15db6b88bf2aa082ceb99715fd2835322be88fc8f
8 detect.ffill.single.raw.json 62baa7ee6a307c6e947aa5b5dfe76d87856f52cb7af3192b439214e1e9c722fb
8 cluster.ffill.single.norm.newick 7a48ea6e945fffa0815d1e31a97ac6048cc8960c426984cee8431c2ef5d7dad4
8 cluster.ffill.single.norm.json bd9da12b52adbc0f00fbb68f568d931f23d8c7ef4219b8e8e9036f729d83b4f7
8 cluster.ffill.single.norm.dot 6457e90162e0aec320f726bf1d9ef768482a60c8c353f9104174efb9b1b09677
8 detect.ffill.single.norm.text e2768ea36fda2dcf24ccfe544f727373845626c4273283c64692824b117e9ab7
8 detect.ffill.single.norm.json 551dd191b8afa43897d196f32cf40172424e69f57425e3c692bb890d7a36b05a
8 cluster.ffill.ward.raw.newick b7676a48c8efa3cb27e012bdd722248ae6def3719094a2effe5c9ee0ffad919f
8 cluster.ffill.ward.raw.json 017ead562fb61dcb2c5a66a66abdf6f2292f5c9151a095b3ab9212a339ef6f86
8 cluster.ffill.ward.raw.dot 02a55f9d9eccb97876423615d0973bc6a175ece3c24c06cbcf52c21a846e9596
8 detect.ffill.ward.raw.text 0fe1c345a45e071342b3c61b8e7dcb9a42914b5caea2b492b4a4c1b5f0521264
8 detect.ffill.ward.raw.json 91f13f4eb326ed5e441d946feca13edaa87730a21137526b147279eb7c93e93f
8 cluster.ffill.ward.norm.newick a0fba151c03a17efafdc2c6d625d83e5e855f1024c4fbc0a0ad56ea54108a35d
8 cluster.ffill.ward.norm.json 3de3b0081386adee3c8085baf1b861162d2c8df23796557229348b424c17bfe8
8 cluster.ffill.ward.norm.dot 4c6ea68f45efb3eaa325437de6d11f374da9dd8acc117fe455567f72a4195f7f
8 detect.ffill.ward.norm.text 7bb7ef41e33c52282f1627949cdcc4ba4314acfa72a7882eb01aa8d1ef07370a
8 detect.ffill.ward.norm.json 638531d74fa04392357f642bf4fce698a127aafa0e523e85bb67f4ae92d0b177
"""


def _golden():
    table = {}
    for line in GOLDEN.split("\n"):
        if line:
            seed, name, digest = line.split()
            table.setdefault(int(seed), {})[name] = digest
    return table


@pytest.mark.parametrize("seed", SEEDS)
def test_artifacts_match_the_recorded_digests(seed, tmp_path):
    assert digests(seed, tmp_path) == _golden()[seed]


# (date, bank) rows removed from the two-year panel: BANK04 keeps 10 of 12
# dates in 2007, below the default 90% coverage, and every date in 2008
YEAR_GAPS = {("2007-12-21", "BANK04"), ("2007-12-27", "BANK04")}


def years_panel(tmp_path):
    """The panel spanning 2007 and 2008, written to ``years.csv``."""
    made = {}
    run = _runner(tmp_path, made)
    run("simulate.csv", "simulate", "--banks", "6", "--days", "24", "--seed", "5",
        "--start-date", "2007-12-20", "--strategy", "single-offset:2:0.05")
    rows = made["simulate.csv"].decode().splitlines(keepends=True)
    panel = tmp_path / "years.csv"
    panel.write_text("".join(r for r in rows if tuple(r.split(",")[:2]) not in YEAR_GAPS))
    return panel


def window_artifacts(tmp_path):
    """Per-date fixes and per-year windows of a panel spanning 2007 and 2008."""
    panel = years_panel(tmp_path)
    out = {}
    run = _runner(tmp_path, out)
    for day in ("2007-12-21", "2008-01-02"):
        for fmt in ("text", "json"):
            run(f"fix.{day}.{fmt}", "fix", "--input", str(panel), "--date", day, "--format", fmt)
    for year in (2007, 2008):
        window = ["--input", str(panel), "--window", f"YEARS-{year}"]
        for fmt in ("text", "csv"):
            run(f"report.{year}.{fmt}", "report", *window, "--format", fmt)
        for fmt in ("text", "json"):
            run(f"detect.{year}.{fmt}", "detect", *window, "--format", fmt)
    return {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}


WINDOW_GOLDEN = """
fix.2007-12-21.text 53cf401e278b0ed079d1c5707fc267590d97057cbd803fe1ac1ae5a0c0970331
fix.2007-12-21.json a3b32b96974c6ae39fb7059b8054350858b5883fe25d51f16dec010466f8f1d5
fix.2008-01-02.text 756d869dc276964cfa1dfbfd3e614f97f13f119ce4b19d07541c4bb2c278ab60
fix.2008-01-02.json 0a22f71514523ad73ad925b62a7284dd1dfaae0bcfe46264577730d6a94a04bc
report.2007.text a51eeb85ec210d52e40f521d5e1c1ac09695a56698569fa898493d245b97c8d4
report.2007.csv 6a5b3306f78f983835839bd5bb8ec6cac33271cf04c2593bba18cfe24efceff4
detect.2007.text 28a4e16bf2667f301979b2705049ea7f570b9849fd2a98fed389b8cafb0a7068
detect.2007.json 1960cb59305f3277dc137fb433a6046b363acbecb00b2ae9ecb7cc775efae020
report.2008.text 1000cd784a92919a8ceb30a1b9665557931aa3cc227cfde774b17d613e56117a
report.2008.csv 94db8b92cffac2483c97ac1472e253e83bc70a1c5de1a6c3e8b5c4cd8f4b1258
detect.2008.text e3f0c51b9f685bd64101020e9220b49ab290a20a5cfe1a5f0816cf1cd930a328
detect.2008.json 1ba0ea514a30e10b6520de2912e82b7a96dfbd45d593e3f5783b40c36772ebc6
"""


def test_date_and_window_artifacts_match_the_recorded_digests(tmp_path):
    expected = dict(line.split() for line in WINDOW_GOLDEN.split("\n") if line)
    assert window_artifacts(tmp_path) == expected


def test_year_flag_gives_the_bytes_of_its_window_label(tmp_path):
    panel = years_panel(tmp_path)
    out = {}
    run = _runner(tmp_path, out)
    for year in (2007, 2008):
        window = ["--input", str(panel), "--dataset", "YEARS", "--year", str(year)]
        for fmt in ("text", "csv"):
            run(f"report.{year}.{fmt}", "report", *window, "--format", fmt)
        for fmt in ("text", "json"):
            run(f"detect.{year}.{fmt}", "detect", *window, "--format", fmt)
    expected = dict(line.split() for line in WINDOW_GOLDEN.split("\n") if line)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in out.items()} == {
        name: digest for name, digest in expected.items() if not name.startswith("fix.")}


@pytest.mark.parametrize("command", ("report", "detect"))
def test_a_year_without_rows_is_a_data_error(command, tmp_path, capsys):
    panel = years_panel(tmp_path)
    capsys.readouterr()
    assert main([command, "--input", str(panel), "--dataset", "YEARS", "--year", "2006"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"data error: {panel}: window YEARS-2006: no submissions in range\n"


# rate texts for bank i on day j of the spelled panel: every bank's quote is
# written a different way each day, and some ways keep trailing zeros
SPELLINGS = ("{}", "+{}", "{}E0", " {}\t", "{}0", "\t{} ")


def spelled_panel() -> str:
    """Four 1M banks over eight days and three O/N banks, spelled variously."""
    lines = ["date,bank,tenor,rate"]
    for j in range(8):
        day = f"2008-02-{j + 4:02d}"
        for i, bank in enumerate(("ALPHA", "BRAVO", "CHARLIE", "DELTA")):
            rate = f"{3 + i / 50 + (j % 3) / 100 + (i == 3) * (j % 2) / 10:.3f}".rstrip("0")
            tenor = ("1M", " 1m", "1M ")[(i + j) % 3]
            padded = f" {day}" if (i + j) % 4 == 0 else day
            lines.append(f"{padded},{bank},{tenor},{SPELLINGS[(i + 2 * j) % 6].format(rate)}")
        for i, bank in enumerate(("ALPHA", "BRAVO", "CHARLIE")):
            lines.append(f"{day},{bank},{('o/n', 'O/N', ' o/N ')[i]},{'+' if j % 2 else ''}"
                         f"{1 + i / 4 + j / 100:.2f}")
    return "\n".join(lines) + "\n"


def spelled_artifacts(tmp_path):
    out = {}
    run = _runner(tmp_path, out)
    panel = tmp_path / "spelled.csv"
    panel.write_text(spelled_panel())
    window = ["--input", str(panel)]
    for fmt in ("text", "csv"):
        run(f"report.{fmt}", "report", *window, "--format", fmt)
        run(f"report.on.{fmt}", "report", *window, "--tenor", "O/N", "--format", fmt)
    for linkage in ("single", "ward"):
        for fmt in ("text", "json"):
            run(f"detect.{linkage}.{fmt}", "detect", *window, "--linkage", linkage, "--format", fmt)
        for fmt in ("newick", "json"):
            run(f"cluster.{linkage}.{fmt}", "cluster", *window, "--linkage", linkage,
                "--out-format", fmt)
    return {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}


SPELLED_GOLDEN = """
report.text c5d93df7cd126d3389a08cdc2fb8ce7872321755fd9bf07d9f0be77961f14b1f
report.on.text 73168871d1208a83ad14681dad6f2eaaa09e174c5bc0e24552c4d2c999100cce
report.csv 6c3a9299ddb8ba171a7b8784775baf39ae00d5b83eaf9c0f39bfccdab2bf8a65
report.on.csv 6b0c9992d09ad6b8ab42f35ca97298f992103f14568dd62701b34f8e5f32af74
detect.single.text 84517349da9a0fd5a2e1126f870613e667863b2a38ff113ecc7ae88b7d179510
detect.single.json db51407f4987b11d745cc01b1e8aad8fb0ca478cca1d92cbeb6720819e8c16c8
cluster.single.newick f1c1c4467ffd1e8465a7089c3e79cc7cdf5c53a567e3fc04e70e84d2d8e1a975
cluster.single.json db4bc017e5afee9943595a9ad90eb0ce20ffe5840065d04ed9c33b28822bdfc7
detect.ward.text f10986695d99c6c43142f3537625ec7142ed12fe7ff1809ce53fe8874f95971b
detect.ward.json 5863ac098ad8ef41cab0656b2e267f01194b825b64ffd6ed553497e2dca691c9
cluster.ward.newick cc330851dd0c01db7fbd9c4ad5dacc9056f13cfb998e2abe7a6dd2b132d7d046
cluster.ward.json d94104a2a71083a1bd8aa29431268b7d3b4265bac19cdb0fc61a8bd11de0672c
"""


def test_spelled_panel_artifacts_match_the_recorded_digests(tmp_path):
    expected = dict(line.split() for line in SPELLED_GOLDEN.split("\n") if line)
    assert spelled_artifacts(tmp_path) == expected


SIMULATIONS = {
    "linear": ("--banks", "5", "--days", "30", "--seed", "11", "--base", "linear:2.5:-0.013",
               "--sigma", "0.02"),
    "shock": ("--banks", "4", "--days", "25", "--seed", "12", "--base", "shock:3.0:-0.75:9",
              "--sigma", "0.05", "--start-date", "2011-12-20"),
    "strategies": ("--banks", "7", "--days", "20", "--seed", "13", "--base", "constant:0.04",
                   "--sigma", "0.03",
                   "--strategy", "single-offset:1:0.0123456789:2-15",
                   "--strategy", "single-offset:BANK03:-5:4-8",
                   "--strategy", "collusive:2+4+6:0.0312345:6-12",
                   "--strategy", "single-fixed:4:1.5:10-17",
                   "--strategy", "single-offset:6:-0.0000005:1-20"),
}


def simulate_artifacts(tmp_path):
    out = {}
    run = _runner(tmp_path, out)
    for name, argv in SIMULATIONS.items():
        run(f"{name}.csv", "simulate", *argv)
        out[f"{name}.truth.csv"] = (tmp_path / f"{name}.truth.csv").read_bytes()
    return out


SIMULATE_GOLDEN = """
linear.csv 34d4ab0905676c37ee1652a7748a5d04061d3f38ba11cc2e067a94a04e6bc044
linear.truth.csv 23fc8ad0a4dc87da58cb1503c11b83598b840e52dc21af44dd115cffa8a7a213
shock.csv 01ef7b8b51e2aab9d3e066d6dfaa2e743b8931a250b481d6a16206c2baea746d
shock.truth.csv 37b9170f4035aeeed853c86a2f5ce22d580e96bef60b17479f35bbf4cc98f2a3
strategies.csv e047b08587d1ead2958fbd5fcceec9b54b75f4d2f29e5e8f75989b18aef809e5
strategies.truth.csv 236cdf4a784b27ba3e512781d62e8afaa4ef0e9a3b2abe338cd360525423b681
"""


def test_simulate_artifacts_match_the_recorded_digests(tmp_path):
    expected = dict(line.split() for line in SIMULATE_GOLDEN.split("\n") if line)
    made = simulate_artifacts(tmp_path)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in made.items()} == expected


HOSTILE = {"prec-4": Context(prec=4), "prec-9-down": Context(prec=9, rounding=ROUND_DOWN),
           "capitals-0": Context(capitals=0)}


@pytest.mark.parametrize("context", HOSTILE)
def test_every_corpus_matches_its_digests_in_a_hostile_decimal_context(context, tmp_path):
    def recorded(text):
        return dict(line.split() for line in text.split("\n") if line)

    with localcontext(HOSTILE[context]):
        for seed in SEEDS:
            assert digests(seed, tmp_path) == _golden()[seed]
        assert window_artifacts(tmp_path) == recorded(WINDOW_GOLDEN)
        assert spelled_artifacts(tmp_path) == recorded(SPELLED_GOLDEN)
        made = simulate_artifacts(tmp_path)
        assert ({name: hashlib.sha256(data).hexdigest() for name, data in made.items()}
                == recorded(SIMULATE_GOLDEN))


def test_every_simulated_rate_is_plain_digits(tmp_path):
    # so ingest reads a simulated panel whole, and never a Submission per row
    for name, data in simulate_artifacts(tmp_path).items():
        if not name.endswith(".truth.csv"):
            rates = [row.rsplit(",", 1)[1] for row in data.decode().splitlines()[1:]]
            assert rates and all(_PLAIN_RATE(rate) and len(rate.split(".")[1]) == 6
                                 for rate in rates), name
            assert panel._read_plain(data, panel.DEFAULT_RATE_FLOOR) is not None, name


def test_only_report_and_fix_decode_rates(tmp_path, monkeypatch):
    # detect and cluster read a window's floats alone; a Decimal they decoded
    # would be ingest work coming back
    running, decoded = [], set()
    decode, cli_main = panel._decode_rates, main

    def guarded(micros, places):
        if running[-1] not in ("fix", "report"):
            raise AssertionError(f"{running[-1]} decoded rates")
        decoded.add(running[-1])
        return decode(micros, places)

    def run(argv):
        running.append(argv[0])
        return cli_main(argv)

    monkeypatch.setattr(panel, "_decode_rates", guarded)
    monkeypatch.setattr(sys.modules[__name__], "main", run)
    assert digests(SEEDS[0], tmp_path) == _golden()[SEEDS[0]]
    assert decoded == {"fix", "report"}
