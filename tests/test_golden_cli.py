"""Golden CLI outputs: SHA-256 of (exit code, stdout) for every subcommand
and output format at fixed seeds.

Refactors must keep every entry byte-identical. The float fields of
verify-scheme and slope depend on the numpy/LAPACK build (recorded with
numpy 2.4 on x86-64). To re-record after an intended output change, run
`PYTHONPATH=src python tests/test_golden_cli.py` and paste the printed table.
"""

import contextlib
import hashlib
import io

import pytest

import mimo3way.rates as rates
from mimo3way.cli import main

SEED = "7"
CONFIGS = ("2,1,1", "4,2,2", "5,4,3", "1,1,0", "4,2,1")
FORMATS = ("table", "json", "csv")


def _cases() -> list[tuple[str, ...]]:
    base = []
    for m in CONFIGS:
        base += [
            ("bounds", "--m", m, "--allocate"),
            ("bounds", "--m", m, "--allocate", "--msgs", "broadcast"),
            ("allocate", "--m", m),
            ("allocate", "--m", m, "--method", "enumerated"),
            ("allocate", "--m", m, "--method", "brute"),
            ("allocate", "--m", m, "--msgs", "broadcast"),
        ]
        for scheme in ("uni-a", "uni-b", "bcast"):
            base += [
                ("verify-scheme", "--m", m, "--scheme", scheme),
                ("slope", "--m", m, "--scheme", scheme, "--trials", "3", "--snr", "20,30,40"),
            ]
    base += [
        ("bounds", "--mt", "3,1/3,1", "--mr", "0,2/3,1"),
        ("sweep",),
        ("sweep", "--msgs", "broadcast", "--ratio1", "1:3:1/2", "--ratio2", "1:2:1/4"),
        # axes whose starts and steps have different denominators, a negative
        # and a decimal start: 108 and 25 points
        ("sweep", "--ratio1=-1/2:5:2/7", "--ratio2", "0.5:3:1/5"),
        ("sweep", "--msgs", "broadcast", "--ratio1", "0:4:3/4", "--ratio2", "1/3:2:1/6"),
    ]
    # trial counts that are no multiple of rates._BLOCK: uni-a with
    # extension factor 3, uni-b and bcast; one block each by the block rule,
    # and three in test_slope_output_in_blocks_of_ten_is_golden
    blocked = [
        ("slope", "--m", m, "--scheme", scheme, "--trials", "21", "--snr", "20,30,40", "--format", "json")
        for m, scheme in (("7,6,5", "uni-a"), ("4,2,1", "uni-b"), ("5,3,2", "bcast"))
    ]
    return [argv + ("--format", fmt, "--seed", SEED) for argv in base for fmt in FORMATS] + [
        argv + ("--seed", SEED) for argv in blocked
    ]


CASES = _cases()


def _digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


GOLDEN = {
    "bounds --m 2,1,1 --allocate --format table --seed 7": "7461f0bea8353852c5b9b28ea6f3297b36852098e5ad7b53dff0db24126bbdb4",
    "bounds --m 2,1,1 --allocate --format json --seed 7": "3683d471937c3a4acffea914bf86ec39fe0aa7fbce3c342b1a5e7adae2443ea3",
    "bounds --m 2,1,1 --allocate --format csv --seed 7": "255575eeb19a850ff42e0b46b1da9246425f8d1dc0252217a070c28d27b2632f",
    "bounds --m 2,1,1 --allocate --msgs broadcast --format table --seed 7": "9a1f94b48aa3f9eb5d4e751ef0edc1f640face24ca024996b64fb5bd7c15fb27",
    "bounds --m 2,1,1 --allocate --msgs broadcast --format json --seed 7": "56570a70f837450e10428073c084bcd9676f59a04d463e596bc1b3ef1c24fc38",
    "bounds --m 2,1,1 --allocate --msgs broadcast --format csv --seed 7": "4cb8f4a448586cb38269f8fdaefbff7a3dafd61df46240ebd8d9b519b55683fd",
    "allocate --m 2,1,1 --format table --seed 7": "215dda31d8f33129f643be0b1925591c889977aa0db99b7524111becbb4669fc",
    "allocate --m 2,1,1 --format json --seed 7": "cc588bc7788439250e88152cf5d22f0c2916ae786623c6ac10a8b84432015c3e",
    "allocate --m 2,1,1 --format csv --seed 7": "8daed8b84585d732b17e38922429d1ec77f5a6f9c5f9ab4ca2b580fadbdda87f",
    "allocate --m 2,1,1 --method enumerated --format table --seed 7": "7bcf28c080a173bf2aea1e7e4d400edc7feb3dacd2a762c349bbca5eabea33f5",
    "allocate --m 2,1,1 --method enumerated --format json --seed 7": "64703ff2b4df6ef93ace1001716298116867f9044f05d7e77387d5b1f6992f12",
    "allocate --m 2,1,1 --method enumerated --format csv --seed 7": "ba3be1ba44f1b35a2aedff6c9a5a184aff942c1742bfe5359512f3422d3c60e1",
    "allocate --m 2,1,1 --method brute --format table --seed 7": "29aa92ca9d2a7e21ce093be82d2304ed10ca8f953956bae03db8a305c0d20d8c",
    "allocate --m 2,1,1 --method brute --format json --seed 7": "b0055f589a1e41121fbb2562379718d07d15eb3a9fc37e63bfa440cb2d4df43e",
    "allocate --m 2,1,1 --method brute --format csv --seed 7": "1ff5b69037db3e834b3d0efd0c7311a52845b9f62a73db9edb9c0572cd662922",
    "allocate --m 2,1,1 --msgs broadcast --format table --seed 7": "2055e56b36a217549a90d419ab55c74d87c2822da74714441efd5e5ac80d6b94",
    "allocate --m 2,1,1 --msgs broadcast --format json --seed 7": "20b65b9290a50bc73bd76c0a2196b533d901aeb1fb728ce3c5ac227847d4a84b",
    "allocate --m 2,1,1 --msgs broadcast --format csv --seed 7": "22f1acd6c8e4c1f9a0436cdbf4d68da3f39f2285c9b11667a5d4cf4d23433359",
    "verify-scheme --m 2,1,1 --scheme uni-a --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 2,1,1 --scheme uni-a --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 2,1,1 --scheme uni-a --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 2,1,1 --scheme uni-a --trials 3 --snr 20,30,40 --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 2,1,1 --scheme uni-a --trials 3 --snr 20,30,40 --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 2,1,1 --scheme uni-a --trials 3 --snr 20,30,40 --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 2,1,1 --scheme uni-b --format table --seed 7": "d3f756048870bc2c50bea47f70f4371a9948ed26e5f008f44926d58f80661d8d",
    "verify-scheme --m 2,1,1 --scheme uni-b --format json --seed 7": "9a35927dccd3ee958a438992a705d26fe6dd230b4e750810404822b4f9b6d1eb",
    "verify-scheme --m 2,1,1 --scheme uni-b --format csv --seed 7": "9ae8159a85b118297656a277566491a873c18548d4011665808c8c03405fcc5a",
    "slope --m 2,1,1 --scheme uni-b --trials 3 --snr 20,30,40 --format table --seed 7": "504534edf0e8c2694088eca434ebe174596f4248b498e40ead36f50eeec4b9b0",
    "slope --m 2,1,1 --scheme uni-b --trials 3 --snr 20,30,40 --format json --seed 7": "8734e903a17cfa2b60c9f5b4c47e93ecbf78ab913dca3adfca08518cfacae4d5",
    "slope --m 2,1,1 --scheme uni-b --trials 3 --snr 20,30,40 --format csv --seed 7": "cf05fde574ceca8db816d75cbaba02a80ec7f32da20922570746666770c39e28",
    "verify-scheme --m 2,1,1 --scheme bcast --format table --seed 7": "4568a3a97ad0185177e102ff2394fa5857d8f33414460aea172a220edcdc9f00",
    "verify-scheme --m 2,1,1 --scheme bcast --format json --seed 7": "d2ab2d407a30914abb634f579acb6ec3caf53d139760090e37f61e6bfa37b5c1",
    "verify-scheme --m 2,1,1 --scheme bcast --format csv --seed 7": "c5630466c4d1972567b2516428d46bbae99d80b821e39727233df37b60465b1e",
    "slope --m 2,1,1 --scheme bcast --trials 3 --snr 20,30,40 --format table --seed 7": "2793417fd21dd04cb13fe0f6ecb4cb8b3f8dd729fa48702ff45c7dc28040beb1",
    "slope --m 2,1,1 --scheme bcast --trials 3 --snr 20,30,40 --format json --seed 7": "53696d84feec6621cd6e30cbf909d110d9728cd1578fcd719be4bd8a8cc0e9c8",
    "slope --m 2,1,1 --scheme bcast --trials 3 --snr 20,30,40 --format csv --seed 7": "4c988c3559ea918ac98bc8048ed8c262d34ca4f670170dee1941a25ca6d68547",
    "bounds --m 4,2,2 --allocate --format table --seed 7": "3dfbc744a838cb997b0a0ef7872374ea1f5962a9f9464b5ae24ebdced9e8d333",
    "bounds --m 4,2,2 --allocate --format json --seed 7": "3147159e77ac6dd8e5628b1698d2cfa2764518b1f7a59b7a8a56c6fc2f9336da",
    "bounds --m 4,2,2 --allocate --format csv --seed 7": "a7837580948ac5fd2f2a5aaefe14f71308a4c091d67ff7f01049d537073a1adb",
    "bounds --m 4,2,2 --allocate --msgs broadcast --format table --seed 7": "d7dff8c9f5706934678f591045d1071ffcc734783123e9d5541216ca574de8e8",
    "bounds --m 4,2,2 --allocate --msgs broadcast --format json --seed 7": "d4752543a569f94744eb4acd26a82490b9428ed5e6c8dcff461b674917b773f5",
    "bounds --m 4,2,2 --allocate --msgs broadcast --format csv --seed 7": "91ff22a4f0ca072909358521c130506483336f437b082cf9ab096f6efc513d53",
    "allocate --m 4,2,2 --format table --seed 7": "2ca01473d0231ec2277fb5c24fc58b0de3c77a39e1310b4534d021d0e9513b89",
    "allocate --m 4,2,2 --format json --seed 7": "e7d93b4ebffceba3d92126a27f39512b6a20380d679ea01d2c927157552f7a33",
    "allocate --m 4,2,2 --format csv --seed 7": "8bef4d41453bca1bec538576fcb7bd52d29a110bc4fe143eda69f922ac8adbc2",
    "allocate --m 4,2,2 --method enumerated --format table --seed 7": "6e49bacc9d3c3301dc043c6a5bc77ec983659613f94bd073b21c15a336921cb1",
    "allocate --m 4,2,2 --method enumerated --format json --seed 7": "f62a8b7881d04f78c44ea45b0f489ac7cd925d0da6fc217714c2d9b9c51f29e6",
    "allocate --m 4,2,2 --method enumerated --format csv --seed 7": "b89f7c885e43e4ef16b6a77a45e8569daefa1b8f7b4f120b52b8c75f4f47fa80",
    "allocate --m 4,2,2 --method brute --format table --seed 7": "c9553c6a9f1bbee318b8aec5062f201f75687a40de4d1c3aeb690f4635ea53f3",
    "allocate --m 4,2,2 --method brute --format json --seed 7": "8bba7bc43f9f88c4f3357d031740b9b91124d74a6383b5591eb2a74a50199064",
    "allocate --m 4,2,2 --method brute --format csv --seed 7": "b1a0beb3309f1c0ba0d1b988fcadfcc338db01c46f47f50ef4133462a4aa38ef",
    "allocate --m 4,2,2 --msgs broadcast --format table --seed 7": "171c3b566761fdc3024d5b2fcc9583c99be863cce87ffd4715c427c4f0076e7b",
    "allocate --m 4,2,2 --msgs broadcast --format json --seed 7": "48833e7966f0f31554d6ef3ca475f6d34938a47522f37feeb7c8ab1cdc2f151a",
    "allocate --m 4,2,2 --msgs broadcast --format csv --seed 7": "deaad40dfab05240ce904054dcc61fd5884cdff712b27d112f23b0b400ba7976",
    "verify-scheme --m 4,2,2 --scheme uni-a --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 4,2,2 --scheme uni-a --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 4,2,2 --scheme uni-a --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 4,2,2 --scheme uni-a --trials 3 --snr 20,30,40 --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 4,2,2 --scheme uni-a --trials 3 --snr 20,30,40 --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 4,2,2 --scheme uni-a --trials 3 --snr 20,30,40 --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 4,2,2 --scheme uni-b --format table --seed 7": "1f262472389b4e430e12605dbf09abf5ec86f46bf4bdc970912ea88bf07d6885",
    "verify-scheme --m 4,2,2 --scheme uni-b --format json --seed 7": "a2ab5ea0cd35d4c8690f233b1d346f352e879d72c808dd01df629dfba67ffe1b",
    "verify-scheme --m 4,2,2 --scheme uni-b --format csv --seed 7": "81f3701836f301b0e11f2561a490099ca97dffbb31ce2a782b9d1cfe6d142a90",
    "slope --m 4,2,2 --scheme uni-b --trials 3 --snr 20,30,40 --format table --seed 7": "e53607a41b8bd49d5532302fff4ff6996fb6f375a09e56a1617747752f4efc1f",
    "slope --m 4,2,2 --scheme uni-b --trials 3 --snr 20,30,40 --format json --seed 7": "58ce19c7be2e6db878ea722bdc17a2db4de0079475f4f745c3c6b562fa6842bd",
    "slope --m 4,2,2 --scheme uni-b --trials 3 --snr 20,30,40 --format csv --seed 7": "3cbaf4dce221663c1474443eb690233f774949683e7866bb6cd9b5febb8e7cb4",
    "verify-scheme --m 4,2,2 --scheme bcast --format table --seed 7": "19d2b45d299ca833cc7fc6c00eeaeaef85baef6afbb72d9a9e9cf0728b6a5f6e",
    "verify-scheme --m 4,2,2 --scheme bcast --format json --seed 7": "b80ed3fff4acc1412a4628dce4f2b114eb52f4e61b0e6d05233f8d16a566d1ba",
    "verify-scheme --m 4,2,2 --scheme bcast --format csv --seed 7": "2f952c39de75d19368aac24581c9ed5b2dd0fc88e25e9782c66752ac10b38935",
    "slope --m 4,2,2 --scheme bcast --trials 3 --snr 20,30,40 --format table --seed 7": "4dab5251e08c950ed163b0a7cb5679545143ce3fd6c7f920061b3b51a9e09e22",
    "slope --m 4,2,2 --scheme bcast --trials 3 --snr 20,30,40 --format json --seed 7": "94c4542f745d98705d050539ca5ebea9873b5617d5fbe3ed6f79a52291c708c2",
    "slope --m 4,2,2 --scheme bcast --trials 3 --snr 20,30,40 --format csv --seed 7": "ef8029d7d28fa690fd147d10c2cc928f527d65299d58095c3df9c911c19cf1ac",
    "bounds --m 5,4,3 --allocate --format table --seed 7": "f0cdf2f9c7ab1801ad6d8bb568d8557471ed4c7f5831b167bd10f589115975c4",
    "bounds --m 5,4,3 --allocate --format json --seed 7": "1e4ff34def959cbce41c91f75c31e6f299bbe7906bad38b0c7721339205945b6",
    "bounds --m 5,4,3 --allocate --format csv --seed 7": "96f8ab81ce4c343faed8605cb46a927bfcf7880c688cd9f7b931de01c2dfe415",
    "bounds --m 5,4,3 --allocate --msgs broadcast --format table --seed 7": "a863dd5b3568ea4958938ab609935ed4f33b9a9d1b4ed0dfa1c02771b8cf90a8",
    "bounds --m 5,4,3 --allocate --msgs broadcast --format json --seed 7": "6a0ba28f685fec081dd707f89ab8d98c10fc254496a9cfa7d468297253ea80f1",
    "bounds --m 5,4,3 --allocate --msgs broadcast --format csv --seed 7": "8c5f7f0e061b6fd0e77d6967f2c3ef4785a37462ca2034547ecf9d511cf3218c",
    "allocate --m 5,4,3 --format table --seed 7": "7a9a64a3c867cfd0494e384e027069948aec479148ac72f5e28391eb05219db9",
    "allocate --m 5,4,3 --format json --seed 7": "cbda875302b18b8582dcd5a949060dfb72e8a3d987c7ca3509e99d0c86b6dca1",
    "allocate --m 5,4,3 --format csv --seed 7": "0183700fe2b4a0bb0861e7b3a02c32cb530d7a7640dc5d3ca007d91f6f7593a9",
    "allocate --m 5,4,3 --method enumerated --format table --seed 7": "401b20e230737f70d51e377f1fddc97fe8d6c23f25683ae8bda4d66d8da6e4aa",
    "allocate --m 5,4,3 --method enumerated --format json --seed 7": "ce6ccd4462f005f8600709e1f96921b5ba4218ce2c95f5740026aa2a5b123319",
    "allocate --m 5,4,3 --method enumerated --format csv --seed 7": "79e0404eb134c3e94241b2f6ab0fb3ba88394060b2427787fb19dd884579626c",
    "allocate --m 5,4,3 --method brute --format table --seed 7": "b75bfc90ecb474d4dc721eac8f1e90b72ccfa2b6792e291687b7627df1aa3861",
    "allocate --m 5,4,3 --method brute --format json --seed 7": "4f0d5d7a813e4b298172e0132763248987eb2ad87724e7bbb87df0849782a482",
    "allocate --m 5,4,3 --method brute --format csv --seed 7": "5ad9a0127b37cbbcb2ce58f2243e987e107cb0a9b6f2d2eeddb3061a502af9aa",
    "allocate --m 5,4,3 --msgs broadcast --format table --seed 7": "58848599eeafe83959acda9d09027e16edb5a8f808b5ca6e9098d6468b8ae55b",
    "allocate --m 5,4,3 --msgs broadcast --format json --seed 7": "52f80dc035daff342ba291f472d78e5c22658731193f144703f6a567fc9cab7e",
    "allocate --m 5,4,3 --msgs broadcast --format csv --seed 7": "a1b77e25a116b348f76ea62a3dfa7951befc1c83fc861e14230c0ac53bf3fb3f",
    "verify-scheme --m 5,4,3 --scheme uni-a --format table --seed 7": "a8821f7f07d156be105c6ca12a794d82bb705e7c2670578d61675dcec3dba00d",
    "verify-scheme --m 5,4,3 --scheme uni-a --format json --seed 7": "239631afe30adf0ac9d0d2fcc5b8d6bfa1655b6f8b3eea52a9585db7e08f089b",
    "verify-scheme --m 5,4,3 --scheme uni-a --format csv --seed 7": "30beb70f81278bdd5dad30764a7a56812bdc027668ba640c48f23d2add5a3352",
    "slope --m 5,4,3 --scheme uni-a --trials 3 --snr 20,30,40 --format table --seed 7": "4cf7c74d09d84086d99d1e3aab1fbd960d9a53a7f1ac418215cb5ce3c5c38448",
    "slope --m 5,4,3 --scheme uni-a --trials 3 --snr 20,30,40 --format json --seed 7": "5001dbaf58e32964727f01b1952c24fda3a97f7d2c5f9c71e37e7793db56851f",
    "slope --m 5,4,3 --scheme uni-a --trials 3 --snr 20,30,40 --format csv --seed 7": "21c0c27271ef54a050b2b18c97abbf99dbe28c1b68c168c8055f63cb1ca5eea9",
    "verify-scheme --m 5,4,3 --scheme uni-b --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 5,4,3 --scheme uni-b --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 5,4,3 --scheme uni-b --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 5,4,3 --scheme uni-b --trials 3 --snr 20,30,40 --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 5,4,3 --scheme uni-b --trials 3 --snr 20,30,40 --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 5,4,3 --scheme uni-b --trials 3 --snr 20,30,40 --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 5,4,3 --scheme bcast --format table --seed 7": "2646c8fc49fe8f76f4c002c81a2bf5e37f6afd880622b4381df32f7602bcecac",
    "verify-scheme --m 5,4,3 --scheme bcast --format json --seed 7": "ca8a7099e81d7413ff7f90f9e9f8b715cbf20415a0fb56393c615d943e004aa1",
    "verify-scheme --m 5,4,3 --scheme bcast --format csv --seed 7": "2cf7a2ddb5cc276dfc9304c98b07fd32449c2e2a0c1ac11200ff2a6502d23032",
    "slope --m 5,4,3 --scheme bcast --trials 3 --snr 20,30,40 --format table --seed 7": "056d3cf74afa6e090093040b0241f0d6e4c835fac0e40a09d50870168a547638",
    "slope --m 5,4,3 --scheme bcast --trials 3 --snr 20,30,40 --format json --seed 7": "4999159a6c55e8a9718f689f0aa3b967615fe684a1616c6573de159ababb656a",
    "slope --m 5,4,3 --scheme bcast --trials 3 --snr 20,30,40 --format csv --seed 7": "bb5f031eff55111a46423a13fdfea6e3edc934686a00a0c268f9a5da3bba885c",
    "bounds --m 1,1,0 --allocate --format table --seed 7": "2b815d04f8cf6944b74623296aa8c6a900b3764d59a1db192128d03c15d06004",
    "bounds --m 1,1,0 --allocate --format json --seed 7": "183616cfe3548bc5d42556c98244d07c9b8ebfb048610bea92bb496750ac3ca8",
    "bounds --m 1,1,0 --allocate --format csv --seed 7": "a10be8613d8e1b60c8ae27f07a0b7a6737d01a9bf9d57468c3d0f756a5adc0a4",
    "bounds --m 1,1,0 --allocate --msgs broadcast --format table --seed 7": "331d330b91ac5bca8478a19d004a6c4ca7f1fcd7d0bdbd7316b726cac2ab9f4b",
    "bounds --m 1,1,0 --allocate --msgs broadcast --format json --seed 7": "b4d3761ad4b88d56767512e876ba7dede56bc362c67205cf598572d6a68cb0d3",
    "bounds --m 1,1,0 --allocate --msgs broadcast --format csv --seed 7": "0f83a5c41bd5f0b4b886433da4e59df3c1dbd6d03be209639fb6417ceaf157c7",
    "allocate --m 1,1,0 --format table --seed 7": "74cd52364d29d66c398dd35cfbf751bde4ce879a346a5ad80d48d8dc223775db",
    "allocate --m 1,1,0 --format json --seed 7": "d146016d8572c2ec4b955b185589f22f9dee7e1a6b6e160887015cd404c3dca1",
    "allocate --m 1,1,0 --format csv --seed 7": "513a95eb6b06ead751da8078c0c13adf56ca8b0edc4141f4e502f5bc8ea24c48",
    "allocate --m 1,1,0 --method enumerated --format table --seed 7": "c73fe44e278e505f296780d01051aa4f0877e2009f57805c3b71ee36eab398ea",
    "allocate --m 1,1,0 --method enumerated --format json --seed 7": "ac7687bd28cd1b9bf86ff6416fddcce9556f45397f268d31618d5f622057f09f",
    "allocate --m 1,1,0 --method enumerated --format csv --seed 7": "2ac3973e49bd673095c0497e104fe51d6e9892f269597b6230fe823490b79d8d",
    "allocate --m 1,1,0 --method brute --format table --seed 7": "438b8990df44db9f86d6a85b6b9599798581a196024b6fbfdb7cf872ddd25ccf",
    "allocate --m 1,1,0 --method brute --format json --seed 7": "478678069b080068c7f7b58579ccb3d42f33dfccd922a7dd807470c0c8a19152",
    "allocate --m 1,1,0 --method brute --format csv --seed 7": "0c824a6a2337b40f103c007fe39658806b8471d80cba13e0c015f8f3437742be",
    "allocate --m 1,1,0 --msgs broadcast --format table --seed 7": "c060b764853f96704bd4d3a782b18dad71b45eb882eb0c2cefcf3ac2116c2707",
    "allocate --m 1,1,0 --msgs broadcast --format json --seed 7": "95c537384b89028d371a2d7a628b5bb286df1ef581e769a168b5dafa9b59fac4",
    "allocate --m 1,1,0 --msgs broadcast --format csv --seed 7": "9b599dd0150fc5188f982f5601dfa413c79e80dc9263ff5fd70229b62541b516",
    "verify-scheme --m 1,1,0 --scheme uni-a --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 1,1,0 --scheme uni-a --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 1,1,0 --scheme uni-a --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 1,1,0 --scheme uni-a --trials 3 --snr 20,30,40 --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 1,1,0 --scheme uni-a --trials 3 --snr 20,30,40 --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 1,1,0 --scheme uni-a --trials 3 --snr 20,30,40 --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 1,1,0 --scheme uni-b --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 1,1,0 --scheme uni-b --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 1,1,0 --scheme uni-b --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 1,1,0 --scheme uni-b --trials 3 --snr 20,30,40 --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 1,1,0 --scheme uni-b --trials 3 --snr 20,30,40 --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 1,1,0 --scheme uni-b --trials 3 --snr 20,30,40 --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 1,1,0 --scheme bcast --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 1,1,0 --scheme bcast --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 1,1,0 --scheme bcast --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 1,1,0 --scheme bcast --trials 3 --snr 20,30,40 --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 1,1,0 --scheme bcast --trials 3 --snr 20,30,40 --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 1,1,0 --scheme bcast --trials 3 --snr 20,30,40 --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "bounds --m 4,2,1 --allocate --format table --seed 7": "29a40d9bbac2f2b416f074248b16558807b9acb62f81ea9f4fb1ab44f7e2c84c",
    "bounds --m 4,2,1 --allocate --format json --seed 7": "1be46e7c6a742ad54c1bdaeaa4cf30e640ac7d3249cb5fbf17f3aa2f010a1690",
    "bounds --m 4,2,1 --allocate --format csv --seed 7": "abef384fd286805b1be7e25c90f5a7de7d72bec414ae1dbb6d81c18dd26f2ab4",
    "bounds --m 4,2,1 --allocate --msgs broadcast --format table --seed 7": "048ad6d846c334951f8c3b966ffdde642fe11ac34a70aa2b1b72955472325732",
    "bounds --m 4,2,1 --allocate --msgs broadcast --format json --seed 7": "6d58e6e381eafe044fb387b127be2c5c4a2cdc2b75dee73d435bd62ece673bb1",
    "bounds --m 4,2,1 --allocate --msgs broadcast --format csv --seed 7": "a0473e474275bc1465b14de44eb207210258788a7d2c895894926aafdc4c70bb",
    "allocate --m 4,2,1 --format table --seed 7": "f9bc1fb59fb7a78478caf02927bc84c9e9b14f49be23f5785c58b882bb23699c",
    "allocate --m 4,2,1 --format json --seed 7": "063e078be537fa249bcccae9840245f83b1c528c877bc7239e02c2ea4c896c0f",
    "allocate --m 4,2,1 --format csv --seed 7": "2b511f50b6d89bb278206e1153a69720f91936f09dc8bfe13635c110cb59ecaf",
    "allocate --m 4,2,1 --method enumerated --format table --seed 7": "165b72614fbe6f715f5a2590403f8f4672cfb0892ed6466822dfbbb194ddf0a4",
    "allocate --m 4,2,1 --method enumerated --format json --seed 7": "aaee270db6b9df48f5ac4184ad6f77a5b826736f6987823ef6740a92fef6b52c",
    "allocate --m 4,2,1 --method enumerated --format csv --seed 7": "01308d89b3328751d4713f73f200f91e072f7eefd7719133dac9f503cb188941",
    "allocate --m 4,2,1 --method brute --format table --seed 7": "65c199117e127bcf7d0a9cb72663d580ba255bf8ad87b726bf9f2051ae03b4fa",
    "allocate --m 4,2,1 --method brute --format json --seed 7": "4efaa771f8a8fa04570c37d83aea68f0f96fb8c85969785f23d761760e4aaeaf",
    "allocate --m 4,2,1 --method brute --format csv --seed 7": "87a0c0bcc8826bb72666402904fe6a601a3d4ee4aa0f37bdfb8cde8a16963a22",
    "allocate --m 4,2,1 --msgs broadcast --format table --seed 7": "4d412d92024c478123ee676ccc6f2f80a78f6b79ac96870f84f1223593a47967",
    "allocate --m 4,2,1 --msgs broadcast --format json --seed 7": "b8cd58bd08dd50faae5d7e59febff59800ab2653626014645cde69a7465b783f",
    "allocate --m 4,2,1 --msgs broadcast --format csv --seed 7": "27b57132ad4742fadf521324ae9a39391814c0947b919750b8b700db66fb1eb7",
    "verify-scheme --m 4,2,1 --scheme uni-a --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 4,2,1 --scheme uni-a --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 4,2,1 --scheme uni-a --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 4,2,1 --scheme uni-a --trials 3 --snr 20,30,40 --format table --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 4,2,1 --scheme uni-a --trials 3 --snr 20,30,40 --format json --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "slope --m 4,2,1 --scheme uni-a --trials 3 --snr 20,30,40 --format csv --seed 7": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "verify-scheme --m 4,2,1 --scheme uni-b --format table --seed 7": "d653e5cfd2b9f0639e1f6e715869207bf84c4a8f4c7ffd4175ff8655a6eab233",
    "verify-scheme --m 4,2,1 --scheme uni-b --format json --seed 7": "9d809dd70cbed3084ce3af831463fca2037254816d1f569d22fb261d4be63015",
    "verify-scheme --m 4,2,1 --scheme uni-b --format csv --seed 7": "69fb128faa3bff1ce38eab6074a945a896427a4fd0784f84db1ddc74936e3b4b",
    "slope --m 4,2,1 --scheme uni-b --trials 3 --snr 20,30,40 --format table --seed 7": "78aea355d0bfeb8dbefcfc4d579c721bb3b234e5ae7ef9e01114a8f3664dabc5",
    "slope --m 4,2,1 --scheme uni-b --trials 3 --snr 20,30,40 --format json --seed 7": "cebb1e6d45792381ae8edd5bb2cee46f6aeeb253dddc1e7dcbf68bd1d425b9ae",
    "slope --m 4,2,1 --scheme uni-b --trials 3 --snr 20,30,40 --format csv --seed 7": "63a25336a47b9ecde2733cf2029dcff8df6b28fbd3241e8ccd7de75ffa90bbae",
    "verify-scheme --m 4,2,1 --scheme bcast --format table --seed 7": "c10f196ea62356962ee552dcfff928bf72ad62f2392972ef208777f346c92382",
    "verify-scheme --m 4,2,1 --scheme bcast --format json --seed 7": "4efc102ab16043b6c089df6d450cebdce6721c8913749153dfc62f419d42ef7e",
    "verify-scheme --m 4,2,1 --scheme bcast --format csv --seed 7": "9c95dde8f34fe2ef390f9bb9da1aa3801f5e95575fe8139168a4b1288c5985b2",
    "slope --m 4,2,1 --scheme bcast --trials 3 --snr 20,30,40 --format table --seed 7": "210eb8d9a1e01cfb3ddf10efcea199938a7b2dace814770a20b0fe9aac164f07",
    "slope --m 4,2,1 --scheme bcast --trials 3 --snr 20,30,40 --format json --seed 7": "bba0ca19d3203a86687155f686ae7779682fc949ef96faa65446edc08e04ce0d",
    "slope --m 4,2,1 --scheme bcast --trials 3 --snr 20,30,40 --format csv --seed 7": "45bf1ac032d61d1c105c5a1541c7523efa4248e26189d73ddf798f7a94c38a29",
    "bounds --mt 3,1/3,1 --mr 0,2/3,1 --format table --seed 7": "cbae91216c5331889c69cfc7bd317ae249064ea9492d7a04e5d7a63dbce5f9e1",
    "bounds --mt 3,1/3,1 --mr 0,2/3,1 --format json --seed 7": "d6ac9cdc0dd5b5a2ae3a4dd0f662533bd43edb2dd0910034c9712ff096b198b5",
    "bounds --mt 3,1/3,1 --mr 0,2/3,1 --format csv --seed 7": "e4b4429bc6e3ff6a394f15597058d473a099445a3b5c7aaab2c35760e0697bbe",
    "sweep --format table --seed 7": "6cf9d4b16706dd7f24b97de9caa5397de2f67f7fb077a40efe0733aa692eb6ef",
    "sweep --format json --seed 7": "c55f9b8ea8887074fb22be3c3d6bda560a75624c4f68cedc21f4849eed5f3a1c",
    "sweep --format csv --seed 7": "b6f8f47ef7d6010737b3edf01fe28bf49490768b2a386c6fc218766347e4b63f",
    "sweep --msgs broadcast --ratio1 1:3:1/2 --ratio2 1:2:1/4 --format table --seed 7": "21a582818ddbcd202c452600a38f4ad513447dcb090891617d94ff3234b2b4ba",
    "sweep --msgs broadcast --ratio1 1:3:1/2 --ratio2 1:2:1/4 --format json --seed 7": "05f6ce1545f9dfed9632e6427c8c8c884aabe1977643287618d2ca816745d20b",
    "sweep --msgs broadcast --ratio1 1:3:1/2 --ratio2 1:2:1/4 --format csv --seed 7": "fdb743a7e5dce2b2e5a92e3dc15a3ec3b2c0c672d0ad60b1aff54a3a6727c053",
    "sweep --ratio1=-1/2:5:2/7 --ratio2 0.5:3:1/5 --format table --seed 7": "1a1238a9d63e83fa5df943e704647a397910734d2c2d57d7d0a16d953989d2e7",
    "sweep --ratio1=-1/2:5:2/7 --ratio2 0.5:3:1/5 --format json --seed 7": "19aa02f443886c1e0cfff8b4fcd4a326196a6eadc0ca635e495127c73272ae77",
    "sweep --ratio1=-1/2:5:2/7 --ratio2 0.5:3:1/5 --format csv --seed 7": "29bb83c36c863d51850de43b8067e71ff3f72b30d36751de7064b0070d07f797",
    "sweep --msgs broadcast --ratio1 0:4:3/4 --ratio2 1/3:2:1/6 --format table --seed 7": "403e81c0cbbba5fdf101661226c4dbf83eff11c4b42484b42ab7679b8601e2e3",
    "sweep --msgs broadcast --ratio1 0:4:3/4 --ratio2 1/3:2:1/6 --format json --seed 7": "b44363c8cf398f52c499432092d64ed0d50398f73571e150d532a06f6f793024",
    "sweep --msgs broadcast --ratio1 0:4:3/4 --ratio2 1/3:2:1/6 --format csv --seed 7": "8d300c06ded2a392ed8c521f9836548fa174dbb5b75c2e3b655d10d24d376253",
    "slope --m 7,6,5 --scheme uni-a --trials 21 --snr 20,30,40 --format json --seed 7": "95d9081129fee2071800f5b25476fb3408c3c5a6fd7352447f6886d413606101",
    "slope --m 4,2,1 --scheme uni-b --trials 21 --snr 20,30,40 --format json --seed 7": "705fa3a0f3c067325ad654758d27458d6324cd285c55a6d66d02f1a449760f4e",
    "slope --m 5,3,2 --scheme bcast --trials 21 --snr 20,30,40 --format json --seed 7": "03ea3e064082bedced07aaf38534cbeddb540debb93e70db0c413ce0a53619a7",
}


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(c) for c in CASES])
def test_cli_output_matches_golden(monkeypatch, argv):
    monkeypatch.delenv("MIMO3WAY_SEED", raising=False)
    assert _digest(argv) == GOLDEN[" ".join(argv)]


_BLOCKED = [c for c in CASES if c[:1] == ("slope",) and "21" in c]


@pytest.mark.parametrize("argv", _BLOCKED, ids=[" ".join(c) for c in _BLOCKED])
def test_slope_output_in_blocks_of_ten_is_golden(monkeypatch, argv):
    # no Gram entry budget leaves estimate_dof its least block, rates._BLOCK trials
    monkeypatch.delenv("MIMO3WAY_SEED", raising=False)
    monkeypatch.setattr(rates, "_BLOCK_ENTRIES", 0)
    assert len(_BLOCKED) == 3 and rates._BLOCK == 10
    assert _digest(argv) == GOLDEN[" ".join(argv)]


def test_golden_table_covers_cases():
    assert set(GOLDEN) == {" ".join(c) for c in CASES}


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{" ".join(case)}": "{_digest(case)}",')
