"""Golden report digests: every exact CLI report over the fixture pack is pinned.

Each case runs one command in-process on a fixture written by
``write_fixture_pack`` and compares the exit code and the sha256 of stdout
(with the fixture's path replaced by its bare name) against the value
recorded before the exact kernel was rewritten. A refactor of the exact
arithmetic that changes any byte of these reports fails here. Float reports
(eigenvalues, Perron) are left out on purpose; the exact matrices behind
the spectra are pinned instead, as the sha256 of their JSON.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hyperlin import build_A, build_A_GH, build_D, build_K, build_L, build_Q, cli
from hyperlin import incidence_matrix, weight_scheme
from hyperlin.errors import HyperlinError
from hyperlin.fixtures import _FIXTURE_BUILDERS, write_fixture_pack

FIXTURES = (
    "h_a",
    "h_tri_4",
    "h_circ_4",
    "h_units",
    "h_eq",
    "h_cov_source",
    "h_cov_base",
)

#: Placeholders for the fixture's first and last vertex.
FIRST, LAST = "<first>", "<last>"

COMMANDS = {
    "check": ["check"],
    "nullspace-vertices": ["nullspace", "--axis", "vertices"],
    "nullspace-edges": ["nullspace", "--axis", "edges"],
    "nullspace-incidence": ["nullspace", "--axis", "incidence"],
    "partitions": ["partitions"],
    "hitting": ["hitting", "--target", FIRST],
    "rw_closeness": ["centrality", "--kind", "rw_closeness"],
    "rw_closeness-lazy": ["centrality", "--kind", "rw_closeness", "--policy", "lazy"],
    "rw_closeness-zero": ["centrality", "--kind", "rw_closeness", "--self-time", "zero"],
    "rw_betweenness": ["centrality", "--kind", "rw_betweenness", "--horizon", "10"],
    "rw_betweenness-lazy": [
        "centrality", "--kind", "rw_betweenness", "--policy", "lazy", "--horizon", "10"
    ],
    "rw_betweenness-default": ["centrality", "--kind", "rw_betweenness"],
    "det-I": ["spectra", "--matrix", "I", "--det"],
    "det-A_GH": ["spectra", "--matrix", "A_GH", "--det"],
    "contract": ["contract"],
    "walk": ["walk"],
    "walk-lazy": ["walk", "--policy", "lazy"],
    "walk-start": ["walk", "--start", FIRST, "--steps", "50", "--trajectories", "200", "--seed", "7"],
    "walk-blocks": ["walk", "--start", FIRST, "--steps", "30", "--trajectories", "5000", "--seed", "11"],
    "first-hit": ["hitting", "--target", FIRST, "--start", LAST, "--horizon", "20"],
}

#: (fixture, command) -> (exit code, sha256 of stdout), recorded before the
#: exact kernel became fraction-free; the walk and first-hit reports were
#: recorded before the walk functions read integer transition rows, and the
#: walk-blocks reports (5000 trajectories, more than one simulation block)
#: before the simulator stepped its trajectories together; the lazy and
#: zero-self-time closeness reports before closeness came from one
#: factorization instead of one solve per target; the lazy and
#: default-horizon betweenness reports before betweenness came from first
#: passages instead of one deleted-kernel power sum per vertex; the contract
#: and A_GH determinant reports before the walk kernels and the spectra
#: shared one coincidence builder.
GOLDEN = {
    ("h_a", "check"): (0, "72cb3ef687576754b12dc5a4e11364232300058741156a01a8d927e4264196e0"),
    ("h_a", "det-I"): (0, "95ac89691c0d5ffbff00fb36c83e210600118bba8c45328d4b9921cfc7ac4ab4"),
    ("h_a", "hitting"): (0, "4065df0c979577ca073f1982d7e4bd908c3fa88fff30fdcd2711fbee8375cb13"),
    ("h_a", "nullspace-edges"): (0, "fea9735ca72a2f8806b475cea019ae545029e5eee2309d740cc8e05b10484521"),
    ("h_a", "nullspace-incidence"): (0, "b4cf645c1150505ddb434a3304280d8dc04a71aa148b66e256e979364e23296c"),
    ("h_a", "nullspace-vertices"): (0, "95a24939610f913038bdee9123352d6fce6bfe52a55fc16cf65be8e3363e59b8"),
    ("h_a", "partitions"): (0, "5afb6a78f2c4db4b41c708377fd26abef003fba9432369ae81a16344fdb88ed6"),
    ("h_a", "rw_betweenness"): (0, "0f33e5d339edfc3095d8a0526c8ccac4886be9ea4a293efb2d5359fcb8719b35"),
    ("h_a", "rw_closeness"): (0, "be7712d2a2e289fae2ebd0916abd9cafbe852b9fbdc6b0a42eb5fe3c606994dc"),
    ("h_a", "first-hit"): (0, "e253bd6f376b748676d1db91031733437624ba29ba53d8beb7f2fd539cbdf836"),
    ("h_a", "walk"): (0, "53a0109db78cdd413ca043f1a8da8939d5aaa025c3282cecb8b541e729f6baeb"),
    ("h_a", "walk-lazy"): (0, "20734a530de8f6dc510b657d0524af07a93525271076a32500415ea8d66bab0b"),
    ("h_a", "walk-start"): (0, "5328d56c3db99f45190a973f45ec4394a642080a11557696314024024eabacc8"),
    ("h_tri_4", "check"): (0, "5595e12a63a0f9aa2270876f859190e48728c839876ba0635d3a3295c3d7c08d"),
    ("h_tri_4", "det-I"): (0, "ad81e60f8c5f68a07b45708b012bfc82080e4d009d57ba9fa3ff0daea8b77199"),
    ("h_tri_4", "hitting"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_tri_4", "nullspace-edges"): (0, "4e633f247083fbf629668c475bb5acf935d945018889ff71b739ab56fd850053"),
    ("h_tri_4", "nullspace-incidence"): (0, "86a3fe1aa4488ffcf9c8be785f2699c31363ecd3a5d851873cad47f37e103796"),
    ("h_tri_4", "nullspace-vertices"): (0, "1f8cc5afcbf5a994863a2aed3da949dcc54ff90157200b51ecf83404283cc7a5"),
    ("h_tri_4", "partitions"): (0, "b09cc3bd19fbf1ad1664522f2b3b0bc3a6aa0270e9e2eef4cff29cccb810023c"),
    ("h_tri_4", "rw_betweenness"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_tri_4", "rw_closeness"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_tri_4", "first-hit"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_tri_4", "walk"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_tri_4", "walk-lazy"): (0, "f044529c9d57ed49a3f597a7f0e7dcde544a0a5e0d58d8eba58f3783d6f109c3"),
    ("h_tri_4", "walk-start"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_circ_4", "check"): (0, "3ae6123f333d9d05b953e52d09e4e84188b5134cc5f9435b8d9c898cad163929"),
    ("h_circ_4", "det-I"): (0, "5ea04030fe89a222225a180094ba75800e9efb0fbd8530da2d82865e802b382f"),
    ("h_circ_4", "hitting"): (0, "5763228f9e442786727cd23193c72903bdafcf9f6a36802c6e1b01c5c7cd5c3d"),
    ("h_circ_4", "nullspace-edges"): (0, "d150b82cd9e050370128cfe34c505f69b383ffec3e96ce03fb0c448073fc8e1a"),
    ("h_circ_4", "nullspace-incidence"): (0, "f367a3a7c365492cd56d2d088683096922bb03a939f25a8647ed1757ad461b1e"),
    ("h_circ_4", "nullspace-vertices"): (0, "2ded7cd1728e57d75cad6a6ba4d04daf9eba4babadf6edcb654c5dfa50b610e7"),
    ("h_circ_4", "partitions"): (0, "b79596de91741390f44e95e67c8bcd34365f62662dba887f0f5241da9e197277"),
    ("h_circ_4", "rw_betweenness"): (0, "3585531d9954f5cc5929dc2fe475c8a187223e59f5db35cc9cfb32a5431cfc80"),
    ("h_circ_4", "rw_closeness"): (0, "719672dc590db585ea56a86dc431d10ca0932578a3fb3ff8bb326c38830f1a47"),
    ("h_circ_4", "first-hit"): (0, "f58eb466ff4489678c17d12469b7ffa2b815bca5b58cdd7a210bd88fa5f9c9d2"),
    ("h_circ_4", "walk"): (0, "8e21dd9d3842c62c2bd9b5ebfeec6a5651bb0c9e3467a857ba085662c2dd02d9"),
    ("h_circ_4", "walk-lazy"): (0, "e3fc78fc485c7608d34f2c45cc4630129cfd48c1ea5c61628b8841ac9b9c10e4"),
    ("h_circ_4", "walk-start"): (0, "251913f6dc927e2ca8a1e0ca35effa1667439352b1cf5791709fb59fb5ab6471"),
    ("h_units", "check"): (0, "bb8365e27b1aff72c96a0ad548f5f5b464aeb8667be9030a6007797f65bd0466"),
    ("h_units", "det-I"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_units", "hitting"): (0, "0ead6247fde18fd736da4e327c59bab4d9fe7b8af7f514c7db2cd4a8275f7b16"),
    ("h_units", "nullspace-edges"): (0, "adc8b74485a3808182c46e1922bca2a5e68681e3de0fc4b1b76e6a0ff0ddd155"),
    ("h_units", "nullspace-incidence"): (0, "0db77931c321333d3b7ee713fd3e67cbbf79bd7569faa4204e6ce093de7a2e18"),
    ("h_units", "nullspace-vertices"): (0, "830db64621882e1b062487463a8ddb7e7719de766062f99c3e2b5c3396f5a014"),
    ("h_units", "partitions"): (0, "2bc54feda26aa5804d9629ab815b64c8cf6052aab61654218de43b422b7294ad"),
    ("h_units", "rw_betweenness"): (0, "da1eb5bdc97e49776b09e4a34c0e7921db8c95e931276fed0bac68ed408405b4"),
    ("h_units", "rw_closeness"): (0, "66b6a1de213e70ea48730e34d7402050b067551043cdeb3fbea60eae9fec252b"),
    ("h_units", "first-hit"): (0, "4e5946016e70aa565cc18a362dc36a115cdac451e170896f7f7ecad456eaaf1a"),
    ("h_units", "walk"): (0, "0f182be9e1d67d31e4d7860059afa9d902689c2a934a83718fa17f39d64b7650"),
    ("h_units", "walk-lazy"): (0, "8008facfb88337b53253fdc5050e0e043096bac41a8291262d6603279584f05b"),
    ("h_units", "walk-start"): (0, "d498c0c3bacb3eae3698aaf1c82380c666a23a03d006146153f9a4bd9551b242"),
    ("h_eq", "check"): (0, "dc1e6d4bf77568ba553e4163844045605dc9ce10c69e4b409f1f59ae222aaa33"),
    ("h_eq", "det-I"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_eq", "hitting"): (0, "586c54ea69b1af256fa662e5c7871abbae1d6c6a07aec180bbe44032034de296"),
    ("h_eq", "nullspace-edges"): (0, "5f73383f5740472a3c7481d2aca1a8763798354ea7496695627ba5fe22769583"),
    ("h_eq", "nullspace-incidence"): (0, "069926f809aa9bd3fa3cd094fab4df8a9beeed8e62a0455974aa3b462a72b2b0"),
    ("h_eq", "nullspace-vertices"): (0, "b444a0ef5f11573d5d600f305457a0a76c9644870f5686c5d5b77fab6f33adb6"),
    ("h_eq", "partitions"): (0, "7361c413308883f759c84eac3a6f145a929e59dc85beb3e9832aead73ba2254c"),
    ("h_eq", "rw_betweenness"): (0, "379af086bbab7a4da9d2cf245ab66d683a26a18e38017fb18a404609cfd766c3"),
    ("h_eq", "rw_closeness"): (0, "74e9eb1eb5fe260bc2c0279f35a4c07046f9e2bbb639f897ea3c88a76e9d932e"),
    ("h_eq", "first-hit"): (0, "29fa0ffc9fc85af34daa810cde015514e213ec4e94bcb72a7a6b14c3d8c6a5e2"),
    ("h_eq", "walk"): (0, "1d75a1207739bda2a987eb75c220f1e3c7a1918347b2bc8ac3828328f9d35ef0"),
    ("h_eq", "walk-lazy"): (0, "63682310cb5a4c936d1281457b7bbadde4d32c34dec3f56f2c460f9e8ea2ebb5"),
    ("h_eq", "walk-start"): (0, "cb5e22da8b9f21b091792652ba9b0e65f5eede2c962a87a92948c8efc11446ce"),
    ("h_cov_source", "check"): (0, "b11c4906e27d9fee6a10050bcbcf8aee7c939c5bfe4f36fbb5a2806346153978"),
    ("h_cov_source", "det-I"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_cov_source", "hitting"): (0, "dddc2be816f40bb1c0b03ab6a26c68ab4d9478fc49fbead73551047be84adca1"),
    ("h_cov_source", "nullspace-edges"): (0, "1451bce9942f1fab4f60cb08ed35a1c5b0fa125d4834fa11af795be1e79e39c6"),
    ("h_cov_source", "nullspace-incidence"): (0, "6693f492422731fea10717410afce95edc1df2f74dd885d7396c9dc14352fc45"),
    ("h_cov_source", "nullspace-vertices"): (0, "12e0210ab1de8debe8952dd0a267528220c393ca08c3a037b739399e62b03078"),
    ("h_cov_source", "partitions"): (0, "7fe36be0eef0aa2617cb544f5a9f76a7b3f1f9f5b66dccd3ae2dfb1a5fe960d2"),
    ("h_cov_source", "rw_betweenness"): (0, "b8bb128aa718226e2fc916db7ac3fccdab8b07ac3935e14150737df8928587c2"),
    ("h_cov_source", "rw_closeness"): (0, "405c3af47874c0819cf2151b6b2c25859f79a6f9a86932dd0c87cb891fefd734"),
    ("h_cov_source", "first-hit"): (0, "ac022c7493a84f8cceb8e7cd95dfff5e81456c71c8e9ff7ed605e30297e689d8"),
    ("h_cov_source", "walk"): (0, "d441d2fcf6e5e073aa5b68755ce56cb2f9df8356c55745404bfcfac3f405bfc0"),
    ("h_cov_source", "walk-lazy"): (0, "0bdc961dd299f378aa9887054a290b12487cc781e0239b781c91e9e6c78dbda0"),
    ("h_cov_source", "walk-start"): (0, "460481a32e46db665369ebd2d2c83fa432a7344081886da64c6fb6ce876b5679"),
    ("h_cov_base", "check"): (0, "214d929d8bd976029cbfc2ba7cdb93df01bf25a8b9928c2b78686d1774d60910"),
    ("h_cov_base", "det-I"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_cov_base", "hitting"): (0, "f854875122349006ae7fe52ce0221b1888dc4a5dfddcdec32ab36555b76b0403"),
    ("h_cov_base", "nullspace-edges"): (0, "568cfbdb762ad9fcc3aa6bb41b517fb2f969e093bf70750ee86ac5418ea9c64a"),
    ("h_cov_base", "nullspace-incidence"): (0, "009118d913a002a56c4bcdabc5fe35c57e1ed4e11c5765e1c876464a566e2ae0"),
    ("h_cov_base", "nullspace-vertices"): (0, "fb30b98dccfdfcf87f26802bb6ad7d023e8587384aabd562aa26d168fbbfdf2a"),
    ("h_cov_base", "partitions"): (0, "56835134772ec41b70302849183f687ed4f1202dc6a68196700b9a672e69998a"),
    ("h_cov_base", "rw_betweenness"): (0, "b638219f2a4149b3c0d252a080767e32590475019aebf087b88360ba96f2622c"),
    ("h_cov_base", "rw_closeness"): (0, "4cf5c3e807dad04439474fcd49b54f6ca91d82b1e86c9b77a19c9115b3e61c37"),
    ("h_cov_base", "first-hit"): (0, "9f2b7af618fea64e8b21d5d92875af6a3a67b6cba5765b8254cfcea444078306"),
    ("h_cov_base", "walk"): (0, "be78860792e80371d7a8425829fdfa04effeaf1ea407d5d5f49337803bc7d01f"),
    ("h_cov_base", "walk-lazy"): (0, "823a5102418220e7010d309bf49327603f571c423ed433b2db0ccc6156299db5"),
    ("h_cov_base", "walk-start"): (0, "f540cd76e7dca065780f1715527c6635ef073496c7e8c24d17935170d72c2a75"),
    ("h_a", "walk-blocks"): (0, "3e7fd1e1ad54d23992c00e1dd011b43f62a881abddaf720793cdd36f4d5839b5"),
    ("h_tri_4", "walk-blocks"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_circ_4", "walk-blocks"): (0, "b35530bd8c9d690d3ff6d450222fdb5df21f14957d21a29527862739db95e318"),
    ("h_units", "walk-blocks"): (0, "422cea88e96aeef44dfb622bb4d707cdb5c2e5a4d9ddb632142d7d32600f7075"),
    ("h_eq", "walk-blocks"): (0, "6a781c4f50323916fa02a8bbf6a848290f00bc6e5993a0339308ce0a1acc12a7"),
    ("h_cov_source", "walk-blocks"): (0, "040a3f20c011b0cf5955b3d25675da966c64e3961cdbe27fd5dc51144f64743e"),
    ("h_cov_base", "walk-blocks"): (0, "d3cecffde61640907f12c3b915ab3ef7dd13d29dba77b2adea0dad2984ea607b"),
    ("h_a", "rw_closeness-lazy"): (0, "fd68f8e3f6e8ee94e297e971a3e25a5a2211f5c2dded42682284a249240ee167"),
    ("h_tri_4", "rw_closeness-lazy"): (0, "f0809bdd072f3831b09a7e180f10dfce6c298ce0bcb0ed7a8644a5a2d6243394"),
    ("h_circ_4", "rw_closeness-lazy"): (0, "e080b7372a7c91257019752cd0efd415df91535345087037f0c6ad357df0fe40"),
    ("h_units", "rw_closeness-lazy"): (0, "1ed1d311129b5e21b605470916a9959f53d976e404a5d3a9fd7cd8dafb44fd29"),
    ("h_eq", "rw_closeness-lazy"): (0, "2758f07d1ec85a5f738c33bccacc8ae5ba667764d659771328091f50e83768ae"),
    ("h_cov_source", "rw_closeness-lazy"): (0, "fdd8740300cf81adb4f5037d43ba538b0b8a17bc4524e284f1a27128af2d78bd"),
    ("h_cov_base", "rw_closeness-lazy"): (0, "615b54dde4f6032472275b71b91a09c5c1c307f77407bb74b9520058d607c9cc"),
    ("h_a", "rw_closeness-zero"): (0, "0ae5592ec2ec14199c1c2eacf8066cbe45a6e5fa54e2a09e490f3bac92b94b0c"),
    ("h_tri_4", "rw_closeness-zero"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_circ_4", "rw_closeness-zero"): (0, "6d984c5488f22616c026a8a844b319d73355f9c8877e51efea6ecaed2eef537c"),
    ("h_units", "rw_closeness-zero"): (0, "404f49e9896fc521f508860085af1a48244de7e4dc4e810297be52074ceec2a7"),
    ("h_eq", "rw_closeness-zero"): (0, "48304d1ade23c04bfda82810e8a47b1b3017d8d8e21d47cc3be54cc6e46a0b22"),
    ("h_cov_source", "rw_closeness-zero"): (0, "b201f5fc900abe7b941bf85c7982aa6c93d3713955510761e0539ec638eec983"),
    ("h_cov_base", "rw_closeness-zero"): (0, "52ebc6aaca6607db5629d7e1036c9d2fad62ef8a2fd0126b7e8bb70ddc8a44de"),
    ("h_a", "rw_betweenness-lazy"): (0, "01b67ff4503230dc28e5a884137d791932dac4629bc0bb6d8687a42966e8281d"),
    ("h_tri_4", "rw_betweenness-lazy"): (0, "00ecf8cc21d209d0c284390baa13882d7bb77fc9a0491d69603d5c882696abf9"),
    ("h_circ_4", "rw_betweenness-lazy"): (0, "91eae1a279c5c549e36f04f98546ab1a8efa19d970de7924d96b07a4fc9a947f"),
    ("h_units", "rw_betweenness-lazy"): (0, "c85d1df9a756c9884c714ee93f47fcc6ff2a1954ba7ef52223ab5170d1ace0c2"),
    ("h_eq", "rw_betweenness-lazy"): (0, "86f2f9839b82c62ebcbaace2640ad2e55d5b4d84dc796dcd67ce0f3d56695f40"),
    ("h_cov_source", "rw_betweenness-lazy"): (0, "d6e38a5193084fcaf8ab461c2866752f78571cc56c683f060ff6a6785fd532ce"),
    ("h_cov_base", "rw_betweenness-lazy"): (0, "4e7ccba28f07ff960b9cbde3d7608b4288ac3d6e634bfb5ac43d2f617e51c319"),
    ("h_a", "rw_betweenness-default"): (0, "025d233d04604b1bad0a152c00728f9d3d507c0d7803d98c25989ead721f03e2"),
    ("h_tri_4", "rw_betweenness-default"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("h_circ_4", "rw_betweenness-default"): (0, "b5f523c8f2e47d54ea4bd65561e60d3e591c29e65c9b065fd74029015d90e0d8"),
    ("h_units", "rw_betweenness-default"): (0, "9f06c2e8ed3c55f3be8d6b66a36e1790ee81f9c7fd824ee25d8a885eed2c212a"),
    ("h_eq", "rw_betweenness-default"): (0, "b151957fde01d4f1bf72d2ff66d4027b2aff61b0314a3b583c1ffa66a79df99d"),
    ("h_cov_source", "rw_betweenness-default"): (0, "4a88d57ba9990baee105385d484889891054019afa75b00b97611e3d5159c83e"),
    ("h_cov_base", "rw_betweenness-default"): (0, "9ff9a5725221b514d8513ee317c54dc4bb0e43d86551d9332936f69428e5cbde"),
    ("h_a", "contract"): (0, "37bb3041932ffa81b5b0213bcba80ba75d7654e42f64f192feddf57b5ed75cd5"),
    ("h_tri_4", "contract"): (0, "74995a3e4b5404b56c61982caeb8ddd46e28edd7e0857439b7ca9e37eb6a1b89"),
    ("h_circ_4", "contract"): (0, "8bdf7d0576d258fa33343fd5acacee4bec1337a3ae78ceaa1f25485e955bcc21"),
    ("h_units", "contract"): (0, "69f4d866f0d53455081c50d927764b4e15b10b9241315da3bd87b353b5878c03"),
    ("h_eq", "contract"): (0, "b27da2de24e3711e2b47a0c03255cbaa13f89b77c571c4512a8a77cd92e90746"),
    ("h_cov_source", "contract"): (0, "1b89cde4fad0e149a63ac9e787ada46e3ffb9fee19c5507b4480c5e378962ea1"),
    ("h_cov_base", "contract"): (0, "7f95cb2ac1c2bb8ad363d07201cb779fbd486b43f4ea546b19ff23cf229b6dfb"),
    ("h_a", "det-A_GH"): (0, "a03d59da4a1948fba79b641b2beacb424deaf1e722c783ed02af1777b183d3e2"),
    ("h_tri_4", "det-A_GH"): (0, "479fcf91e6f436806e6808c8f3220565d9c22ead3bbf314d5bb06124f04bfa17"),
    ("h_circ_4", "det-A_GH"): (0, "7dcb2ebfeec1548a5bd4ab79675216a32e101e6cdc469422cd683d9024ce909b"),
    ("h_units", "det-A_GH"): (0, "d04a091b5e5a73b26498db6558534cc42c833ab67607c08e75045c217e0e0b77"),
    ("h_eq", "det-A_GH"): (0, "09040689f702644ec6846358944a42c18f2b97f920524ad44e5b5a0a550daae9"),
    ("h_cov_source", "det-A_GH"): (0, "1614a2577e242f6f57dc7c84c27f12bf972ca814697d9c9eee18fa2ed2ee6e0e"),
    ("h_cov_base", "det-A_GH"): (0, "2047eb8e57160dba7f8b29c9757773249627679432f47ae2dd0f5182c26dd679"),
}


@pytest.fixture(scope="module")
def pack(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_fixture_pack(directory)
    return directory


def report_digest(pack, capsys, fixture: str, command: str) -> tuple[int, str]:
    path = str(pack / f"{fixture}.json")
    vertices = json.loads((pack / f"{fixture}.json").read_text())["vertices"]
    labels = {FIRST: vertices[0], LAST: vertices[-1]}
    argv = [COMMANDS[command][0], path, *(labels.get(a, a) for a in COMMANDS[command][1:])]
    code = cli.main(argv)
    out = capsys.readouterr().out.replace(path, fixture)
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_the_shipped_fixtures_are_the_written_pack(pack):
    """The bench, the README and CI read fixtures/; the digests above read the pack."""
    shipped = Path(__file__).resolve().parent.parent / "fixtures"
    written = {p.name: p.read_bytes() for p in pack.iterdir()}
    assert written == {p.name: p.read_bytes() for p in shipped.iterdir()}
    assert len(written) == 8


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fixture", FIXTURES)
def test_exact_report_digest(pack, capsys, fixture, command):
    assert report_digest(pack, capsys, fixture, command) == GOLDEN[fixture, command]


PRESETS = ("unit", "edgenorm", "fullnorm")

#: (fixture, weight preset) -> sha256 of the JSON of Q, A, D, K and L, or the
#: name of the error the preset raises; fixture -> sha256 of the JSON of I and
#: A_GH. Recorded while RationalMatrix still stored Fraction entries.
WEIGHTED_GOLDEN = {
    ("h_a", "unit"): "47110b0505727cf0f08244393482d927a4a41dbc973ce25d45d75cf9fb6ec7d8",
    ("h_a", "edgenorm"): "bc2c8aac4f7f7a170761a54c5d43fadda37f0aba36c11ab2bcc8ef9bce5a8e6b",
    ("h_a", "fullnorm"): "23196772f58ef681b78aa0cbdc12bc9dfdc28ecb41a6b7b489b35937eb5161c9",
    ("h_tri_4", "unit"): "a7b7a44611a0da8ee4b23c466a4b4f858aa16bc2ec4ee94047e5efddba3f9e0c",
    ("h_tri_4", "edgenorm"): "SingletonEdgeError",
    ("h_tri_4", "fullnorm"): "SingletonEdgeError",
    ("h_circ_4", "unit"): "dbb6096ab46bf00262f92caa8098897976723551d251aa3624b69fd866ed18cb",
    ("h_circ_4", "edgenorm"): "e5ce03485ab15f77bbb67df596a29c9c70bebc04eed29a0d13f7bc2d564e7791",
    ("h_circ_4", "fullnorm"): "6e184c1ab9155ba27e3dbf991a779734d73d215fa25dbc4a97749b86a84a2347",
    ("h_units", "unit"): "8b8b7ebc3dd0ffd2f17db19e9662ef3fe0ebb8607e97319bffc4d85f9177a610",
    ("h_units", "edgenorm"): "bab510bd6fa7f834ab8ce2076623cc08613bd3a92821df7f55d0be24543d32d1",
    ("h_units", "fullnorm"): "f69bc26837777451af33ed2dd1155a2a3630e8f222a532a30e5682b7b97ed790",
    ("h_eq", "unit"): "94898fec2774fea328ffe7efd0812cf10fbf4fc08f35d070473f67fba29063f5",
    ("h_eq", "edgenorm"): "594b2ffeec115949d018d20e5b607a9297951e846fb9529cd81f65b99701d5b6",
    ("h_eq", "fullnorm"): "899473a69451723e3744d830344eb635650339c7d794c691c91bab840bd655e4",
    ("h_cov_source", "unit"): "f985c0b7cfedb88f26b5220b832f1ab1790af9f9f043310299f1c589af64eb73",
    ("h_cov_source", "edgenorm"): "532d290489f58caa6a0c5457953653bc24c4b4b1785334b25bb94c110a604922",
    ("h_cov_source", "fullnorm"): "5fd001271e18622efebdce5943617da4aa64125fb7c8ed4203ef13dd88e5ce31",
    ("h_cov_base", "unit"): "5cccb0fb9bc86b6e2107578cab5abc8b1601319d863b7a855893f9a28c131794",
    ("h_cov_base", "edgenorm"): "846a464714d6c71e7461794ebb3267469696bef4fbea8e668ca9b13aaaf48ac0",
    ("h_cov_base", "fullnorm"): "eb8de6b36dadf66dc2427aa049def7c324ea735ad71b0857b6b83b60c1a4fe64",
}
INCIDENCE_GOLDEN = {
    "h_a": "7d82fd22a20ac440f16c7d996383b09ac33d2876e73cd9bfc68e7659886a8ec6",
    "h_tri_4": "4ffecae8f577f64089e00266141031e1c64009fb61b96ad0960bb93e618923da",
    "h_circ_4": "7322df0e77e6a228e21b7fe6b6b3c1cedabf15a2d479ccf6bfa0cac720828044",
    "h_units": "9741ce333b864af913834bb4d7775b273e7ef461fe3926bc9b94e6ef9829e897",
    "h_eq": "fb0c20136b505c2bb1f0dc2b1016450691834abe91caca641ac95741fe14137a",
    "h_cov_source": "f72c183d8ad8f52140189706055000a3a65c0bb28baa8c90eb0adcd25a96d31f",
    "h_cov_base": "dcfae0a5108ed0e06d3d180e8597c65922273228c8d93314216d2719126891bc",
}


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def weighted_digest(fixture: str, preset: str) -> str:
    h = _FIXTURE_BUILDERS[fixture]()
    builders = {"Q": build_Q, "A": build_A, "D": build_D, "K": build_K, "L": build_L}
    try:
        w = weight_scheme(h, preset)
        return _sha({k: build(h, w).to_json_dict() for k, build in builders.items()})
    except HyperlinError as exc:
        return type(exc).__name__


def incidence_digest(fixture: str) -> str:
    h = _FIXTURE_BUILDERS[fixture]()
    return _sha({"I": incidence_matrix(h).to_json_dict(), "A_GH": build_A_GH(h).to_json_dict()})


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_weighted_matrix_digest(fixture, preset):
    assert weighted_digest(fixture, preset) == WEIGHTED_GOLDEN[fixture, preset]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_incidence_matrix_digest(fixture):
    assert incidence_digest(fixture) == INCIDENCE_GOLDEN[fixture]
