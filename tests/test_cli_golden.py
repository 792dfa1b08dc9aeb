"""Golden CLI output: exit code and sha256 of stdout and stderr per command.

The digests pin the bytes every subcommand prints, in every format and
route, so that refactors which must not change output can be checked against
them.  Regenerate them only when an output change is intended.
"""

import hashlib

import pytest

from gegentropy import cli

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (command, exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = [
    ("entropy --lambda 4 --n 2", 0,
     "66174ce562da36ca83f76887bc4a2dfeefe1154d51b9a439413a52c8b9ae1877",
     EMPTY),
    ("entropy --lambda 4 --n 2 --format decimal", 0,
     "dfcd3c855d8aa9c2073e7d76b4be14338292f91bddb59458e7e2bdb73d8ee5c2",
     EMPTY),
    ("entropy --lambda 4 --n 2 --format json", 0,
     "21f4a17db1f7598af871d8a50dca91eb9fff3c037dda30331fc176f40efc64a9",
     EMPTY),
    ("entropy --lambda 3 --n 5 --normalized --format json", 0,
     "ef5c28d114313da29c9c501883c1d4655f5811ae0364df99f22dbf7ead51ca57",
     EMPTY),
    ("entropy --lambda 0 --n 5 --normalized", 0,
     "d033449108b112068028d9e5d490859f3cef41a6e53227572a684b6dbb345a6a",
     EMPTY),
    ("entropy --lambda 0 --n 0 --normalized --format json", 0,
     "8d743255a309da4ed3fac03eeebf628e8ca3c1e9b3d29752dac047d42e59259b",
     EMPTY),
    ("entropy --lambda 0 --n 7 --normalized --format json", 0,
     "8c60e6c883ba61a81a2e85b39822c7eebd6c50be7400a27d9a68e672f9910771",
     EMPTY),
    ("entropy --lambda 2 --n 3 --normalized --precision 80 --format decimal", 0,
     "c87a9427bb69ac0f89c7d5bc96f1d2efec64a0b82d4321b0c939dc42e2b189fc",
     EMPTY),
    ("table --lambda 4 --n-max 3", 0,
     "b0d969a4eaace7d5887ed43a8ecde94d45e93b4f49d0140e1829d628b555c8d1",
     EMPTY),
    ("table --lambda 2 --n-max 4 --format csv", 0,
     "48dfb0c3c576d598a5788a8ba2547cc0749cdb7c748eb2e81a69c9417f639f38",
     EMPTY),
    ("table --lambda 3 --n-max 3 --format json", 0,
     "32a66b3b6a5ac05b712ba7ea43a4f6211a3f2364b6a28d10a5bbea3ae836f532",
     EMPTY),
    ("integrals --lambda 3 --n 2", 0,
     "a32f06b4da32b8b9f297b74ee923a7e84ee674204d593d3e51f0b4ba69b881f6",
     EMPTY),
    ("integrals --lambda 3 --n 2 --format csv", 0,
     "008e76133c16818f7f7954c127d62ea2a178fa24b98c194b55a18ac7593e262c",
     EMPTY),
    ("integrals --lambda 3 --n 2 --format json", 0,
     "7f631357807e553a0746d1584110a6596227f8ea615cd043ddba5c5158611216",
     EMPTY),
    ("integrals --lambda 4 --n 3 --route faa-di-bruno", 0,
     "640a32e31a8c383d7a9ed05dbfc77b20a7afd4e43e802208ed619a9504319a38",
     EMPTY),
    ("integrals --lambda 4 --n 3 --route faa-di-bruno --format csv", 0,
     "a2313d450e83e30a00d1018c7b0a5242dab51634e31f40e64dbacbae02e69c14",
     EMPTY),
    ("integrals --lambda 4 --n 3 --route faa-di-bruno --format json", 0,
     "4c315dc1142037e811af764cec0b5ba89af790609d9b106aa54ba04af3485f45",
     EMPTY),
    ("integrals --lambda 1 --n 3 --route faa-di-bruno", 0,
     "456825c8da0ec6a308b3c1dcdaa64a3dfd7f82240a609d8db13ee61115ab7914",
     EMPTY),
    ("integrals --lambda 2 --n 4 --route faa-di-bruno --format csv", 0,
     "5f8a6ef9c3b584a1b2704b1600c5116a705b854be24b27b010dab8bdaf824c6a",
     EMPTY),
    ("integrals --lambda 2 --n 5 --route standard-rep", 0,
     "0191735b685f220fe5594c28d25cc9ef4e118e59d2d75c36d21a1e55ac4f5d65",
     EMPTY),
    ("integrals --lambda 2 --n 5 --route standard-rep --format csv", 0,
     "ba7d34b58090c1f08d4156122bb39edb6fb44ebcbb785e6474407f2c1a6d3d5a",
     EMPTY),
    ("integrals --lambda 2 --n 5 --route standard-rep --format json", 0,
     "b85423e7cee1192163ed4a8464095023f939608b489a22a7a5dafd0c871d53df",
     EMPTY),
    ("verify --lambda-max 3 --n-max 2", 0,
     "5b70ff0ed7b97003bc0ed34fcdcd67665b564a11c8ba215f83b1184d0b439fd4",
     EMPTY),
    ("verify --lambda-max 3 --n-max 4 --skip-quadrature", 0,
     "8270e4da13c3c5630e4439096c12f53eedcb579e16e56e1b01ee3d43aa19d7bb",
     EMPTY),
    ("entropy --lambda 0 --n 5", 2,
     EMPTY,
     "0c353dd599112d997ff389cf5b48d6fa9185ce8702981bab3d53f6ec9bc17dca"),
    ("table --lambda 0 --n-max 3", 2,
     EMPTY,
     "fc2e28f38ad07331f0542eb7c402abaeb4d1145cac60fe5eda45f72826e62cd0"),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command,code,out_sha,err_sha", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_output(command, code, out_sha, err_sha, capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_PRECISION, raising=False)
    assert cli.main(command.split()) == code
    captured = capsys.readouterr()
    assert sha256(captured.out) == out_sha
    assert sha256(captured.err) == err_sha
