"""CLI stdout pinned byte for byte.

Each command below runs in-process, and its exit status and stdout are
hashed together.  The hashes were recorded from code that
`test_old_code_equivalence.py` keeps as an oracle: the witness, contig,
bideal, esets, classify and enumerate ones from the Buchberger-based toric
layer, the volume, faces, holes, laurent and check ones from the star
triangulation over enumerated hyperplanes and the solve-per-call lattice
coordinates, and the z2z2 ones, whose face (0, 2, 5) has a non-cyclic
quotient, from the Smith-form integer layer.  So they show that no
replacement moved an output byte.
After a deliberate output change, regenerate them with ``print_golden()``.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

from ahyper.cli import main

DEMO = ((1, 1, 1, 1), (0, 0, 1, 2), (0, 1, 1, 0))
NORMAL3 = ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1))
WIDE5 = ((1, 1, 1, 1, 1), (0, 0, 1, 1, 2), (0, 1, 0, 1, 1))
CURVE0134 = ((1, 1, 1, 1), (0, 1, 3, 4))
CURVE0235 = ((1, 1, 1, 1), (0, 2, 3, 5))
CURVE = ((1, 1, 1, 1, 1), (0, 2, 4, 7, 9))
RAY_PAIR = ((1, 1), (0, 1))

WITNESS_MATRICES = {
    "demo": DEMO,
    "normal3": NORMAL3,
    "wide5": WIDE5,
    "curve0134": CURVE0134,
    "curve0235": CURVE0235,
}

# every facet value of this beta is non-integral on DEMO and on NORMAL3
NONRESONANT = ("1/2", "1/3", "1/5")

# the README's matrices, with parameters on and off their resonances
ESETS = {
    "demo": ("1/2,-1/3,0", "0,1,1", "1/2,0,0", "0,0,0", "1,0,1"),
    "curve": ("2,10", "2,12", "3,19", "1,9", "1/2,1/3"),
    "ray_pair": ("1/2,0", "0,0", "-1,1"),
}
CLASSIFY = {
    "demo": (("1/2,0,0", "3/2,1,0"), ("0,1,1", "1,1,2"), ("0,0,0", "1/2,0,0"),
             ("0,0,0", "0,0,0")),
    "curve": (("2,10", "2,12"), ("0,0", "1,9"), ("1/2,1/3", "3/2,19/3")),
    "ray_pair": (("0,0", "1,1"), ("1/2,0", "3/2,1")),
}
ENUMERATE = {"demo": "-1:1,-1:1,-1:1", "curve": "0:2,0:10", "ray_pair": "-2:2,-2:2"}
README_MATRICES = {"demo": DEMO, "curve": CURVE, "ray_pair": RAY_PAIR}

# the cone and volume commands, on polytopes with repeated and interior columns
GEOMETRY_MATRICES = {
    "demo": DEMO,
    "normal3": NORMAL3,
    "curve": CURVE,
    "wide5": WIDE5,
    "skew5": ((1, 1, 1, 1, 1), (0, 2, 3, 3, 2), (3, 2, 1, 1, 2)),
}
HOLES = {"curve": CURVE, "curve0134": CURVE0134}
LAURENT_DEMO = ("0,0,0", "1,0,1", "0,1,1", "2,1,2", "1,1,0", "-1,0,-1")
CHECK_SEEDS = (0, 1, 2)

# its face (0, 2, 5) has the non-cyclic face quotient Z/2 x Z/2
Z2Z2 = ((1, 1, 1, 1, 1, 1), (2, 2, 2, 3, 2, 0), (3, 1, 3, 0, 0, 3), (2, 1, 4, 2, 0, 2))
Z2Z2_ESETS = ("0,0,0,0", "1/2,1,1/3,2", "2,3,4,5")
Z2Z2_CLASSIFY = ("0,0,0,0", "1,2,3,2")


def _matrix(rows):
    return json.dumps({"A": [list(r) for r in rows]})


def _column_shift(beta, rows, j):
    return ",".join(str(Fraction(b) + r[j]) for b, r in zip(beta, rows))


def commands():
    """(label, argv) for every pinned command, in a fixed order."""
    out = []
    for name in ("demo", "normal3"):
        rows = WITNESS_MATRICES[name]
        for j in range(len(rows[0])):
            out.append((f"witness {name} +a{j + 1}", [
                "witness", "-A", _matrix(rows), "-b", ",".join(NONRESONANT),
                "-b2", _column_shift(NONRESONANT, rows, j),
            ]))
    for name, rows in WITNESS_MATRICES.items():
        for j in range(len(rows[0])):
            for sign in (1, -1):
                chi = ",".join(str(sign * r[j]) for r in rows)
                for cmd in ("contig", "bideal"):
                    label = f"{cmd} {name} {'+' if sign > 0 else '-'}a{j + 1}"
                    out.append((label, [cmd, "-A", _matrix(rows), "--chi", chi]))
    for name, betas in ESETS.items():
        for b in betas:
            out.append((f"esets {name} {b}", [
                "esets", "-A", _matrix(README_MATRICES[name]), "-b", b]))
    for name, pairs in CLASSIFY.items():
        for b, b2 in pairs:
            out.append((f"classify {name} {b} {b2}", [
                "classify", "-A", _matrix(README_MATRICES[name]), "-b", b, "-b2", b2]))
    for name, box in ENUMERATE.items():
        out.append((f"enumerate {name} {box}", [
            "enumerate", "-A", _matrix(README_MATRICES[name]), "--box", box]))
    for name, rows in GEOMETRY_MATRICES.items():
        for cmd in ("volume", "faces"):
            out.append((f"{cmd} {name}", [cmd, "-A", _matrix(rows)]))
    for name, rows in HOLES.items():
        out.append((f"holes {name}", ["holes", "-A", _matrix(rows)]))
    for b in LAURENT_DEMO:
        out.append((f"laurent demo {b}", ["laurent", "-A", _matrix(DEMO), "-b", b]))
    for seed in CHECK_SEEDS:
        out.append((f"check demo --seed {seed}", [
            "check", "-A", _matrix(DEMO), "--seed", str(seed)]))
    for b in Z2Z2_ESETS:
        out.append((f"esets z2z2 {b}", ["esets", "-A", _matrix(Z2Z2), "-b", b]))
    b, b2 = Z2Z2_CLASSIFY
    out.append((f"classify z2z2 {b} {b2}", [
        "classify", "-A", _matrix(Z2Z2), "-b", b, "-b2", b2]))
    for cmd in ("volume", "faces"):
        out.append((f"{cmd} z2z2", [cmd, "-A", _matrix(Z2Z2)]))
    return out


def _digest(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()


def print_golden():
    for label, argv in commands():
        print(f"    {label!r}: {_digest(argv)!r},")


GOLDEN = {
    'witness demo +a1': 'b5a913d96040793981cf82a486210bb2a4070d768382df46f9a58eb40b59c1e0',
    'witness demo +a2': '40c4bd2c7dfce9025afcace934636b516d27891492ef40e6e9c6b86cdd5d60d2',
    'witness demo +a3': 'b4196bb32c19a01ac18c3843aa02a264be2cdf253a8fa4650e9bfcc6ecc63f20',
    'witness demo +a4': '1f3c7da190f2a9962721d92dde0d13bf69de512216e68d7699106f9d08c5e120',
    'witness normal3 +a1': 'c64d29b423e34e5a5c26780621b5bcca7f926b504a22874f47e392c85c31cf55',
    'witness normal3 +a2': '7cf047d4ea9479d1d79ff8b63de4d3d86d775241f3f584dc02157ce09f6d72f4',
    'witness normal3 +a3': 'e91d115fe18adc2f0d55556a3a28d75b30811317473444b06c9b589559ebdbcc',
    'witness normal3 +a4': '7af5df5d49bd6ed3e2096258260f5281ae77b2826c4ac4fa300597f28e8837a5',
    'contig demo +a1': '4f23c7780fe4c6ad23d2d3297ee7094a2f8d019b32dc34658c2dcf8c834ae643',
    'bideal demo +a1': '14eaf98aa35672c36d7a7bd201ec21dc1f500d6b741c845af2c53cfb92ae92a4',
    'contig demo -a1': '8d981edb303e02d8ef317ece6214619dbe4ce0cbe17ee2a227bdab20fa557dae',
    'bideal demo -a1': '4d7b3bb82e52dbadc1e3467725e578021303052800bd46fbc4eaa619d5c3e96b',
    'contig demo +a2': '984f597b497933754831545011b3c957cf451e1666e6d9b44998705652e524b9',
    'bideal demo +a2': '698369351d5d446f644de9cc06f8d5df09829fdfce386dce5487e2ae17c0530e',
    'contig demo -a2': '0257a16b370b0958e7372d4c517878d189d7af5365f5bb9036aa6192094c1a31',
    'bideal demo -a2': 'a979c50fab46e121456bbb4e7f2f2de98631f6c0fd1413ac4dfb4785aefe5da1',
    'contig demo +a3': 'eb7b408ccef4e19a23f3b18078f4c762cf253b01345ce84fe655e49843472e85',
    'bideal demo +a3': '5d221c0c3b63f7b05cc4ed69b2d56623968f01c94faee1f48c958d5b63a49974',
    'contig demo -a3': 'ccfd189a917dc3d1d662e8149c28f1623f0a65c1ece0e13df2ed9e9221108ba2',
    'bideal demo -a3': 'e7af1b19bbb0999463dc1b49bcb458035155aac39dfbb73006aba1a17d910bd0',
    'contig demo +a4': 'b5cf7126d30f0d2ebb60ec11e43fbf96db4704605e181b03f33fcb0372f09703',
    'bideal demo +a4': 'd07870d19df41b76d7c759f4346d1b98c218466854d562ca06f166f17b9f6b89',
    'contig demo -a4': '003c60ed60babc135f1040f349c5868232c83482736ab0fd48600986599ac096',
    'bideal demo -a4': '1e35950413357269b548f49eb1ec54bbbe126a875b5a12bf3e127473789e9f16',
    'contig normal3 +a1': 'cdd0d55566e05fa031d705cbc41958932915412a33617f8194e3b2219f01fc68',
    'bideal normal3 +a1': 'c91cac0bcdd4ad169ab89ad6f1e79395dfa3a70ac9d1e3500d2cbcbfc460380b',
    'contig normal3 -a1': '0fec5d2fdbc8bcd1ddfba6b8aa16da982f7f401cd22f83807a56e0aae6d87cb4',
    'bideal normal3 -a1': '2fb8d34df3196940947d4d3763c9c2faccb28f73ff48f2a9a8e57774a79b60df',
    'contig normal3 +a2': '36eaf31ba5492b9ba97a3661b997d97920c4d36da9b00716c571fb8de6778eeb',
    'bideal normal3 +a2': '79e6eb7679f4f7046c2458dd8524f14462c4e02eb9f9d4c4aa725145f302fd2b',
    'contig normal3 -a2': '599ec9cd445887a4719a63b0d5132084eee0768aa9d4572af4312ffe19e76d10',
    'bideal normal3 -a2': '9ed1a97cc4eea670074b8552cb0c53eaa3f58182e76d4259387abc8f8f881fbd',
    'contig normal3 +a3': '08ba1091fc807efc1819aee16e1acb739d6a509cebbefe091b6aa0d235691fd4',
    'bideal normal3 +a3': '2f660335d2c1d62b49cb015aa0c1b8d486909a0db902508d83ffdb932abc3375',
    'contig normal3 -a3': '66ce00071d18422d2e7eb406e8bc8dab842f105fa48ed9befaf23fe625ab45b8',
    'bideal normal3 -a3': 'f050dd16a63fb3c2087510ea59a7c3b04c70ea6311e6ef1feb99fe5562440049',
    'contig normal3 +a4': '1ad3c75445d6f816de22bcd53ad5453490eac89ce209ab2a4075de9cf52d1411',
    'bideal normal3 +a4': '8a249f5c4ab19dc9dced54abc1c578221ecd760834ed66f45e756c2d181ad389',
    'contig normal3 -a4': 'bbde4c4ebe32bc523f0e473520abde4415ef71eefd64a5e9de2b44ebba3b1572',
    'bideal normal3 -a4': '8114155cadc7571c4c2716ce4bd40f463978eda9b992177ab3cc6340e7dfb692',
    'contig wide5 +a1': '7d257f2054637f82543253e0fc60f433a7a8ce73535ad92bd68c7d84496ec6ff',
    'bideal wide5 +a1': 'eec280f0ab709901a609cbb291f25053fd44262f93635ba04ef1bcbf26f4c836',
    'contig wide5 -a1': '76cb560b6c477165a2ff718e8f49d23be7c46741a8b4c0f3ad2cf43945448164',
    'bideal wide5 -a1': '07bf352814b5051f753770bf32286c8c6f78c67b10df63a8138c75070d888318',
    'contig wide5 +a2': '9b1a3cc174dceb28be6d2e89e773dac233d2ae3a698f430af9bbeb72085e23c7',
    'bideal wide5 +a2': 'e783d192cccbbf4486a2c8da81c0cff27b90849f3e02ec6db0106a609371ac0b',
    'contig wide5 -a2': '1b2c3aa63d3857ad04bb5934bc8df2a0efe6de19ad367755041edef3595e6105',
    'bideal wide5 -a2': '417a385b811f2fde07da08cbb8f8034f75cfcdbfee89581212b16e8865ef2c69',
    'contig wide5 +a3': '88842f2ed7ddd1bb4cfe6e4479b8374579d942e4ff5106222f180a5d41ed209c',
    'bideal wide5 +a3': 'b4d985d37c562142dba5c39dbd7c8d2c6539f944860b5bd2b1db4ece225d2ca6',
    'contig wide5 -a3': '5d8b4c4a2fe95edac0aa37b61456af7ec072733a7ced65be0fa53eb6a1add571',
    'bideal wide5 -a3': '4515edd24d0489e6b3db14ddd470e3f06156a8db3908643cc999e137ec08d669',
    'contig wide5 +a4': 'd8dc11fc9fd7ccb58c08d4c8a8540e05df7f4d3ce60305f372934c840267e630',
    'bideal wide5 +a4': 'ead2eae74b9e80e426e83b7e9c96790fe7f7b6108af00db6e8b597664b17f17a',
    'contig wide5 -a4': '63de1e078321947265d892a127d5f3c3c5ae86b05471802e1ad83f7e29b20f7c',
    'bideal wide5 -a4': 'b6be9b2c9f025ee19ee9385c0ef9ad8402d8446085a4dcf16a3e5b94434f807d',
    'contig wide5 +a5': '919ae5c1f05a1853c439efb79e4cd1f5d52b958c86a3ae3007bb87d30441a572',
    'bideal wide5 +a5': 'fe456a93bcc8674d5b2671ae9eeee904ea1864e20f5830671c9ca95128456263',
    'contig wide5 -a5': '59930154ee85d3e79f3eabdbe0da74f4972e685d45a5aaa1ef530b0d0e489f4e',
    'bideal wide5 -a5': '8454950638ab17d4152a7896a4db167ceb99f854ef4166f0c9a2a68ac76909d2',
    'contig curve0134 +a1': 'e7e2e1a9be99c091890a69371a1d464129baee501a627e9aa7c0c7ac4679c2f2',
    'bideal curve0134 +a1': 'e3ffe1cdb3c79b2812280d6a4f20037b7bcefe56e5e7d9edc234ba7501f218c1',
    'contig curve0134 -a1': '36f30e221394de3112eb196004afa273f1e5b76b26d4135b546e3eae56f26c40',
    'bideal curve0134 -a1': 'ad1e19586a3191f44e617a2801741bd4a41d56dc3eb9b7839cca911bdbdefbc4',
    'contig curve0134 +a2': '99798eaba7b7054f02a550f12c777f89d57e2a5af82a06e1301b80c3df30413a',
    'bideal curve0134 +a2': 'd2f7515a11ca7ff45f39de4ec8079e0caded90247dda8d53c1b1143fb1a4f8de',
    'contig curve0134 -a2': '245b0c052f8dc178ba76ca88481b75960c02ff81ed87cac0297cd89bf356f91f',
    'bideal curve0134 -a2': 'bddbe49313b7bd4fe2b604e2a65cff639543c81cbd504a3afc37e407cbf47110',
    'contig curve0134 +a3': 'a92599c6f6a57258dc564165765a400a6bb8bf689c0c4b1ec0f1befe9e17d52a',
    'bideal curve0134 +a3': '9875cbc8a32f6df328edd57eed200b834289662526928c04f9d4c90b3d344e37',
    'contig curve0134 -a3': '77bcc46c6654db9dc8ef7ebebee10dfc2b3859aaddc7be6b8400ad461f1b06e2',
    'bideal curve0134 -a3': '868579c423c7cd6a5575655b120e2da1879555125f03f2b0898e72ed1d0a5f9d',
    'contig curve0134 +a4': '0ba9848923aac399de419f5c57ad2c76950d1210aa2b6098a1740c47a128770c',
    'bideal curve0134 +a4': '24a1cfbbea0d01d367cd22d265937a2c9c9a3f0fe2015ccec2a0a772e06bfec1',
    'contig curve0134 -a4': '6fb8a0fe57b2e3d4355b5f60fee225faa131e3355f7ec61e9a5a3ddaf76b9c47',
    'bideal curve0134 -a4': 'b3d1a1c8aa6ed6860e1ebe7f4a194daa01993a44e49009846e0ed524eb9fe454',
    'contig curve0235 +a1': '92ca31eac415df76ff8d78a387af9e482b5a4dd030714c37c2398565211b0154',
    'bideal curve0235 +a1': 'a94ff8715c14ce0bd36056c1269b6843f048fb772374460e96e2f46306fc2030',
    'contig curve0235 -a1': 'a486747d0b661d751ea6dd6658187826a1688c6ac6f2efa93f49dbace5bee275',
    'bideal curve0235 -a1': '525837e042aa0116ac1165a34568e6e6c817b59e8d2c4dd6fbb0908f712bfab9',
    'contig curve0235 +a2': '1adccc4c8cedfabef5e7a15b4aed6e7af2b2b226283bffc6e4ca8aedf4b797f3',
    'bideal curve0235 +a2': '7cbfa55effe6ff7465ce9dacdf7dfd1173697505811b57be95127568acae6658',
    'contig curve0235 -a2': '1aa3fd0c59593e3b0005ac6080a8bb561884db524597089bf8d6334a7017616e',
    'bideal curve0235 -a2': '0da15341e83d6a29d4db0cd1fcd453c40af85114718bb702f56c2d617160577a',
    'contig curve0235 +a3': 'e05755afb157f221f2d20b25cb01074b9c3c9d3ff799ccf3ac9eb494a5a6ff08',
    'bideal curve0235 +a3': 'f120d9cbbe8448bc58e4cbc3bb6ed8d2eb7be4264053ae6653fda2a1930094b3',
    'contig curve0235 -a3': '83d14b292fffe93a3d9c22eac81b00169c6aa6c2073b08f487edaacd92064176',
    'bideal curve0235 -a3': 'dfd1081e506637b8df13504c58c6389857bd9dad12a4e34dc9eca7ac6fad35fb',
    'contig curve0235 +a4': 'e6027f8a8ef176ed1a6c43fb8f4dd8f2d2357b88340ea5e7975cedc5aa025140',
    'bideal curve0235 +a4': 'f76b458b788a3ab81338922972f13be29309fef0d44192c69f01e7b84f0dec3c',
    'contig curve0235 -a4': '71b2cca65f18c17702cebe467989deaee75b1e00ddba0da1c228c9b5b2af8cec',
    'bideal curve0235 -a4': '184d9e8bff040823d23e8a33c8f1d2d78cfd31788403b64a4f7f1ed7b62f470f',
    'esets demo 1/2,-1/3,0': '00ba8f49da189016b8ff6381fc6d7e5c343ac13378a5fc6c1b2cd7b0232f8e39',
    'esets demo 0,1,1': '752135cb3a434715b9b14d984c1a9470486ca2eb7a7a8be835713cb7b7eb60a6',
    'esets demo 1/2,0,0': '68522470b513b84e3dbfde3e01228ab903350c8730059965007f7306ba5bac7a',
    'esets demo 0,0,0': 'd64e3598e69d44250aff8b8898352b5b2736a864115b442593b9b729fe30d92a',
    'esets demo 1,0,1': '5afcc3a63697081a657743789493b1b59806613b5af9bfe0101aa37b5eb4c4c8',
    'esets curve 2,10': 'bc34c6b37075f2dca22f01c113b95330cca04c33c5985fefeb37dd282ac2195a',
    'esets curve 2,12': '2815adb58ae50476f76c78d29780494c643941b00bc1b1112d27647174d35aec',
    'esets curve 3,19': '459c5be2f36ce1cff90f1f63440d7048ce54b3cdb64d4ee03717ea660b197b51',
    'esets curve 1,9': '17001a82822f601c28daf8afffe642eaabe4838f79d36f134350b8a4fdc95e51',
    'esets curve 1/2,1/3': 'dfe5765edc0b7dd477c5bfad2db0ee1e713f740740145cb74082e901140a2cc9',
    'esets ray_pair 1/2,0': '023b8f14420f1921bcaa2800facd37e850d98c207a5c271c04097239ecc3fe00',
    'esets ray_pair 0,0': 'bec4888110eafa969829fd4d0c5b8625b77a64f20692265c44b438635afa4c82',
    'esets ray_pair -1,1': '46f1b48b429b135b869667727785cea5108e498c399f78ba75eb3db2dc876536',
    'classify demo 1/2,0,0 3/2,1,0': '7299dac80dadabc843b4a7fcc142e11bd774f7786d6f7c2b0b4da1780b20f364',
    'classify demo 0,1,1 1,1,2': 'be903c23c5e12ac9576547061327aa49fc0016b410077634db0abc9489d78eae',
    'classify demo 0,0,0 1/2,0,0': 'd18ebd96d14768f7503008f9acf3dfe9383d97aab5b9b1deaed8323a5778712a',
    'classify demo 0,0,0 0,0,0': 'c2d6654e0b248db5bc19686f564f4d7aec3a93dbef805856509ab40dfc7cc768',
    'classify curve 2,10 2,12': 'a34249e23a98a248b49bc8335ad68df46d0f6e8e93912960aa5f54f6017c179d',
    'classify curve 0,0 1,9': '2b8604ad9b5d36d3ca01b414c1bcb69502ab477f19301e99c3a561a6240d8dc1',
    'classify curve 1/2,1/3 3/2,19/3': '2902dc73d4e182c45c16ad76d859aba447d9ef74d55259f5dfa5626e97893e62',
    'classify ray_pair 0,0 1,1': '5708d17c20ac6269b17e3ecbb8dc1d589295321cab92ec662fc9413f0bed8540',
    'classify ray_pair 1/2,0 3/2,1': '276fc890b4ee0d3981c44357f44a9375eb42f60a64c062b24ed5f96771da8c2e',
    'enumerate demo -1:1,-1:1,-1:1': 'a7f3842bad4afa65f9fe09f101aea61204cc6437030c76ec54ca0e5cbe69609b',
    'enumerate curve 0:2,0:10': '8d231a3bc724320e2764b07fafc2fffc60efd73c5e7faaa16654cab03082b944',
    'enumerate ray_pair -2:2,-2:2': '84887020a5930834194bc2ab8c9df02e9948f8df1e81fa37f5cc8aaeeb3043db',
    'volume demo': 'd04a844f55b5f8f8eb6d6e5987d4404f3b078b805bf27b91cd543600b6801144',
    'faces demo': '7b40f57dcf458679403c34e6fa078ce85be7cb875d5386e58403258e30cafca5',
    'volume normal3': '365e703ced2d260262157f95254a32eaa552f201cd838296d208902f6167f4bf',
    'faces normal3': '5666dafb5320b0072b71b6e9b9a9e4a4a28a3f28e212747c37e7196d9e592910',
    'volume curve': '8174866041597ffa18a51328245953501016c4dafbe489b166b2b6e65ee955af',
    'faces curve': '7ed1afde29cf5c131f3649f52fcbea57b3661d9ec864bae03d14ad0071d62298',
    'volume wide5': '9a07bad748fa61c0e123bdf4c32ac1005596d443c989f3cf267fc4df1513b033',
    'faces wide5': 'dc526cf0b9086cfc667eb91bb33e8436d9c34d0267d0210173b0d8f28433a4f8',
    'volume skew5': 'b10a7f2695503e180a5dc1c35fec3fe5edb139a6c0e69f7a8bd239d50d30ed48',
    'faces skew5': 'a481c4da564c5fb3598b93d63a99866a99869618998655a5e5e574c7d19ae360',
    'holes curve': '799bb2ab9894ff2a7e7bc614da4dc8f4aaa4379613ee2cb61ccff81575b6707d',
    'holes curve0134': '189b1a6e9f2c03643e346b20d7ac39bc413ba048209137159a8262cecc161225',
    'laurent demo 0,0,0': 'ef6e38bd086626759feb3acd24ccb406b1633984055cbcd59a8f3d318b236ca5',
    'laurent demo 1,0,1': '4128bc84fcd79b71e2089dd69015d7811f26212f49eb9b34767b5622576da512',
    'laurent demo 0,1,1': '0473c63c89f6165092d3e6835ec3fca630c817ff826ccaa97bce20a4360e4510',
    'laurent demo 2,1,2': '1cbd214c373546f32b86bd865e8e2ad063c2349de9b5dc9df8a3c11a7f90a249',
    'laurent demo 1,1,0': '0c10a025322095196e241ed13a5d2df9f77c6c38ae43799a1d00359746c58572',
    'laurent demo -1,0,-1': 'b3cc51a1980b28c55ce94ff1a52c319d43586453a4986fb80e76a49d54e04dee',
    'check demo --seed 0': 'c970e15e8c73dcc1d090ae5f1e5f03abf6d90ef0a49f0d02fd5affe053c1a661',
    'check demo --seed 1': 'e3c0b61281b8368b167169936c075941ea307787d66a5d0e0b4d805e672cb841',
    'check demo --seed 2': 'b3af1b51b2afaa8f8a526708fd480c5b96218925883fdce7082c9b5de2550e59',
    'esets z2z2 0,0,0,0': '697533d2eb6258669582efa189c9e1f1816aab0f104fea1644b78c1e293899c5',
    'esets z2z2 1/2,1,1/3,2': '571ac995572aa7075079a217a620004b86a73e02ea582d8ff8e0e14dd0ffc57e',
    'esets z2z2 2,3,4,5': '528c36b5df07e21f9cea81075b0e2c9852727abb7261644595cd75ee9035dc6b',
    'classify z2z2 0,0,0,0 1,2,3,2': '90cbb7adcb97f9fdac1448c4cd1b92e632dbf92e8ac93736f1305909d4bcb0c4',
    'volume z2z2': '91212c526df734ae82b4c1ed060fc2716e467a3acf05ef0f39a797f4b86b5e2b',
    'faces z2z2': 'ce3e47568c1ba3000cf16d784ce38551d31733fbbf1ffc5e33d20f1bc36a7c55',
}


def test_cli_output_matches_the_pinned_hashes():
    cmds = commands()
    assert [label for label, _ in cmds] == list(GOLDEN)
    changed = [label for label, argv in cmds if _digest(argv) != GOLDEN[label]]
    assert changed == []
