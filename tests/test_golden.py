"""Golden output: sha256 digests and exit codes of the command-line output,
and of the obstruction systems and cup products the command line never
prints.

JSON and text output are promised to be byte-identical across runs and
across refactors; these digests pin that promise.  The six ``verify``
digests at n=3 and 4 are also checked against the benchmark's ``bench/golden.json``, so
the benchmark and the suite cannot drift apart.  The n=5 ones cover S_n
orbits of five indices, larger than n=4 reaches.  To regenerate after an
intended output change, print ``cli_digest``/``*_digest`` for every key.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hilbworst import dgla, lifting
from hilbworst.cli import main
from hilbworst.ideal import set_diagonal_zero
from hilbworst.taylor import FreeModElt

BENCH_GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"

# argv (space separated) -> (sha256 of stdout plus written files, exit code)
CLI_GOLDEN = {
    "gens --n 3 --flavor hilbert --format json": ("fee14f63a257c862ce32ec91eae32563bedc4cad1728fd3389920850dbd7e77e", 0),
    "gens --n 3 --flavor hilbert --format text": ("6e25103029ce0c31a0c68a64ec8fdd5257d26ce87568f970105ed9918e20eb0c", 0),
    "gens --n 3 --flavor hilbert --format cas": ("0b40979253b73049e3d03248f65c430d762e5d0b5dd8e35dfc9b5930b1dfcf01", 0),
    "gens --n 3 --flavor miniversal --format json": ("1548157955ee4be1da0f3d2954861ba5b63b4e13bfc7f055abad4a7ae13b1e22", 0),
    "gens --n 3 --flavor miniversal --format text": ("597eadaaa7c0a93babec0057402c9f8b6fb9b5461d9c7f3daaeae075bf1db40b", 0),
    "gens --n 3 --flavor miniversal --format cas": ("c3787f6de43c95ef532fd485b40adb5193ab4d5d0746de6a9335c881d3245b0e", 0),
    "gens --n 4 --flavor hilbert --format json": ("57bcc5a0f7cca6be9b60ade97c6be0912fcc4372ad7108a0f4774a6ca7379d8c", 0),
    "gens --n 4 --flavor hilbert --format text": ("d15d671873465b67430740464fd646ad1e71ee9cd5c1e746dbd3b146bcb82556", 0),
    "gens --n 4 --flavor hilbert --format cas": ("081a519993b5d8c22def99dd64446fcfbaf8309ffa15a647f05e5c4a827351ca", 0),
    "gens --n 4 --flavor miniversal --format json": ("e193096c4af0d6e663b308147228667b67317cb07a66f744a37c3e8756e55ada", 0),
    "gens --n 4 --flavor miniversal --format text": ("256b09a8bd21a402ec73b4730e7ec46ea3fb51d20880177ba72e755e8b53a1de", 0),
    "gens --n 4 --flavor miniversal --format cas": ("43a78153e2f0fcdb9cf81a4dcbe39e40002fc53601b0f5ade1a85b28fb680955", 0),
    "family --n 3 --flavor hilbert --format json": ("04563c76985952c0efa6b065f2168509b88345aadbad0698c9e83138128f7d89", 0),
    "family --n 3 --flavor hilbert --format text": ("c2dc6dbb8fb0b613a52f155459f002028d2af6f8d795c7b7564d5d48418eb65b", 0),
    "family --n 3 --flavor hilbert --format cas": ("b6c14af65df33db7a1c667fd39df2b35c5d3f6781b01bea176e946e22f9958f0", 0),
    "family --n 3 --flavor miniversal --format json": ("ace58fbee76c22c8fc0d8c3f1830b2f63bf139e0ffadc6b57814421a0252a326", 0),
    "family --n 3 --flavor miniversal --format text": ("bd77c19e6129a504c603a6fd0bfc028dea9196426917ae4dc6f68e50b6030236", 0),
    "family --n 3 --flavor miniversal --format cas": ("6b2ac658c495cd6dcc437e7f70e843c778272a3e09130cf242c573ebf6520ffb", 0),
    "family --n 4 --flavor hilbert --format json": ("c2ea6c8cccff4da2d574449c788a1b80af5a12b01b6f07df347ef18b2061cd3c", 0),
    "family --n 4 --flavor hilbert --format text": ("0f9010fc5f08b3e9e0e89120afd70b75517b7ccf1801e3fddeb795e107732c1d", 0),
    "family --n 4 --flavor hilbert --format cas": ("a9a6e0b67ba8480f2a10cb2a5f3e8332612d31939801f6dfd78abe12e711b258", 0),
    "family --n 4 --flavor miniversal --format json": ("eaf66745281d2cb275452283a38caf52e2e39fb54eaeb4225787e22d1f6efdfa", 0),
    "family --n 4 --flavor miniversal --format text": ("21860f896333a552a8b1abf9cb6be1f67de01e57302ccb5591a5e3d9f1f9e062", 0),
    "family --n 4 --flavor miniversal --format cas": ("93327ca0fc5eb3151dcb364d683d2860e5da7865a0fc4040472141c93e564089", 0),
    "verify --n 3 --route classical": ("fad9bcf6d84b688fbea609901bf158923b04aaaea5e1d092238205180fc4c033", 0),
    "verify --n 3 --route dgla": ("45f0422c1f729a864613c44dd121eb0a9d990d23cdc257ee1a605c149fc4fdd9", 0),
    "verify --n 3 --route based": ("4b57689ef69d0c48f4111e0fa90457128e1bc817b518d7bfb343dc398b37c932", 0),
    "verify --n 4 --route classical": ("b442d7c5447ca5b103fb47285b3bdbf03e41cfffb4d3c4617ec864b394526f06", 0),
    "verify --n 4 --route dgla": ("3fbb970aaae895f2fb390b6b60ba8259620bfea69c3d1a1df96ed6c0897c3c9a", 0),
    "verify --n 4 --route based": ("c173043ccb49b1696b49f51b085fc18fe10304bdc9b14588ba1f46fc1555599e", 0),
    "verify --n 5 --route classical": ("229cdaf00b32b23bceb415b6a4b2f4518f178e1e5c9dd98de301ff41d140e9bf", 0),
    "verify --n 5 --route dgla": ("6618d527b66175b9af1e84f3468e7a2c02ec0dc76bdff239f4e4f41f5fbe2345", 0),
    "verify --n 5 --route based": ("e206c5635ff3ca84067a04fd22c231409cdef07521712182bc0c55e8aefef76d", 0),
    "verify --n 3 --route oracle --seed 0 --samples 20": ("2cdd87c4a22e15a7ace9766d3c6338c434522d3ff967fbae0866edb1e9f32b7b", 0),
    "export --n 3": ("37fa6f27421e08d1058ac16d15160042636ee1f7a3cff3722551c32254b16581", 0),
    "export --n 4": ("7e52dc4817276fda169b97a013f2ad7b7f42b6491d44e067eedd053a54074db5", 0),
    "subspaces --n 16 --list 3": ("c592af2a9c560aa4ca9499966896c3a4d3dbc55fad1a04b2920b688dd939cba2", 0),
}

# n -> sha256 of second_order_obstruction(n) rendered by obstruction_text
OBSTRUCTION_GOLDEN = {
    3: "0cf8b477d8281dcf28b94d06b4567d6d838023fc3dcc4d6e03956760172051b2",
    4: "5da839d9a44c5b181d7b2e8cf77efc371cd047b9ef174b25853dc8c55e7cb417",
}

# (n, True) -> sha256 of kuranishi_quadratic_locus(n) rendered by
# kuranishi_text; True names the miniversal normalization t(i,i,i) = 0, the
# only one the dgla route has
KURANISHI_GOLDEN = {
    (3, True): "b8fdb67452a99e83831dcb46bc339ec48f8eb20ac3483bf07e883fd852ba5b6d",
    (4, True): "889b96ead7304073684631e03d2da335006ae0fa23706ce88ee8182fcbb1b6e3",
}

# (n, True) -> sha256 of cup_product(n) rendered by cup_text
CUP_GOLDEN = {
    (3, True): "08d5a4709c32ad94170ba3ece92602e5a9f6ea1ef33f1b42430b51ed15e04e8f",
    (4, True): "20acb6a07626adec941b37c56ef8feed1aed5409569b18752236cf37f62eb77c",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(argv: str, capsys, tmp_path) -> tuple:
    """Run the command line in-process; for ``export`` the bundle goes to
    tmp_path and every written file is appended to the digested text."""
    args = argv.split()
    if args[0] == "export":
        args += ["--out", str(tmp_path)]
    code = main(args)
    text = capsys.readouterr().out
    if args[0] == "export":
        for name in json.loads(text)["written"]:
            text += f"== {name}\n" + (tmp_path / name).read_text()
    return _sha(text), code


def _equations_text(pres) -> str:
    return "".join(
        f"{lab}: {g.text()}\n" for lab, g in zip(pres.labels, pres.generators)
    )


def obstruction_text(n: int) -> str:
    system = lifting.second_order_obstruction(n)
    text = _equations_text(system.equations)
    for pr in sorted(system.candidates):
        for lab, c in system.candidates[pr]:
            text += f"candidate {pr} {lab}: {c.text()}\n"
    tails = {sym[1:]: tail for sym, tail in lifting.build_f(n)[2].items()}
    for pr in sorted(tails):
        text += f"tail {pr}: {tails[pr].text()}\n"
    return text


def kuranishi_text(n: int) -> str:
    """The locus, then the canonical correction term psi, minus each
    classical tail with the diagonal parameters zeroed, in pair order."""
    locus = dgla.kuranishi_quadratic_locus(n)
    text = f"flavor {locus.flavor}\n" + _equations_text(locus)
    psi = {
        sym[1:]: -set_diagonal_zero(tail)
        for sym, tail in lifting.build_f(n)[2].items()
    }
    for pr in sorted(psi):
        text += f"psi {pr}: {psi[pr].text()}\n"
    return text


def cup_text(n: int) -> str:
    """Wedge values, then exterior-square representatives, in sorted
    symbol order."""
    cup = dgla.cup_product(n)
    values = [(s, v.text()) for s, v in sorted(cup.wedge_values.items())]
    values += [(s, q.rep.text()) for s, q in sorted(cup.curly_values.items())]
    return "".join(f"{FreeModElt._sym_text(s)}: {t}\n" for s, t in values)


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_output_is_golden(argv, capsys, tmp_path):
    assert cli_digest(argv, capsys, tmp_path) == CLI_GOLDEN[argv]


@pytest.mark.parametrize("n", sorted(OBSTRUCTION_GOLDEN))
def test_second_order_obstruction_is_golden(n):
    assert _sha(obstruction_text(n)) == OBSTRUCTION_GOLDEN[n]


@pytest.mark.parametrize("n,miniversal", sorted(KURANISHI_GOLDEN))
def test_kuranishi_locus_is_golden(n, miniversal):
    assert _sha(kuranishi_text(n)) == KURANISHI_GOLDEN[n, miniversal]


@pytest.mark.parametrize("n,miniversal", sorted(CUP_GOLDEN))
def test_cup_product_is_golden(n, miniversal):
    assert _sha(cup_text(n)) == CUP_GOLDEN[n, miniversal]


def test_verify_digests_match_the_benchmark():
    if not BENCH_GOLDEN.exists():
        pytest.skip("bench/golden.json not present")
    bench = json.loads(BENCH_GOLDEN.read_text())
    for n, routes in bench.items():
        for route, want in routes.items():
            got = CLI_GOLDEN[f"verify --n {n} --route {route}"]
            assert got == (want["sha256"], want["exit"])
