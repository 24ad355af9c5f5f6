"""Byte-exact CLI outputs: stdout, stderr and exit code of every subcommand
in every output format, for the Fibonacci numbers and the Pell numbers.

Each case stores the exit code and the sha256 of stdout and of stderr, so
a reordered JSON key, a changed CSV float or a lost warning fails here even
where test_cli.py checks only fragments.  Sizes are kept small so the whole
file runs in seconds.
"""

import hashlib
import sys

import pytest

from fibrank.cli import main

PELL = ("--a1", "2", "--a2", "1")
FORMATS = ("--text", "--csv", "--json")

# subcommand arguments run in every format for both sequences
COMMANDS = (
    ("rank", "10"),
    ("rank", "123456"),
    ("ell", "7"),
    ("member", "2"),
    ("member", "3"),
    ("density", "2", "--depth", "500"),
    ("density-b", "2", "--depth", "500"),
    ("iecheck", "12", "--depth", "300"),
    ("count", "5", "--limit", "3000", "--checkpoints", "3000", "1000"),
    ("count", "2", "--limit", "2000", "--checkpoints", "500", "2000", "--witnesses", "4"),
    ("witnesses", "2", "--max", "5", "--limit", "3000"),
    ("verify-structure", "2", "--limit", "5000"),
    ("scan-b", "--limit", "500", "--checkpoints", "100", "500"),
    ("lowrank", "--gamma", "1/3", "--limit", "5000", "--checkpoints", "1000", "5000"),
    ("ellsum", "--limit", "200"),
    ("nonmult", "1", "--pbound", "30", "--limit", "2000"),
)

# exit codes 2, 3 and 4, help output, and sequences with a2 > 1 or a prime
# discriminant (z(2) and z(p) for p | disc, lifted from e = 6 and e = p)
EXTRA = (
    ("rank", "3", "--a1", "1", "--a2", "-1"),  # 2: degenerate parameters
    ("rank", "0"),  # 2: rejected by the argument parser
    ("--help",),
    ("count", "--help"),
    ("lowrank", "--help"),
    ("witnesses", "--help"),
    ("rank", "3", "--a1", "1", "--a2", "-3"),  # 3: rank undefined
    ("verify-structure", "3", "--limit", "100", "--json"),  # 3: non-member
    ("member", str(2**63)),  # 4: out of range
    ("ellsum", "--limit", "100", "--a1", "1", "--a2", "3", "--json"),
    ("member", "3", "--a1", "1", "--a2", "3", "--json"),
    ("rank", "13", "--a1", "1", "--a2", "3"),
    ("rank", "26", "--a1", "3", "--a2", "1"),
)

CASES = [(*cmd, *seq, fmt) for cmd in COMMANDS for seq in ((), PELL) for fmt in FORMATS] + list(EXTRA)

# argparse lays out its messages differently across Python minor versions
ARGPARSE_CASES = {("rank", "0"), ("--help",), ("count", "--help"), ("lowrank", "--help"), ("witnesses", "--help")}
ARGPARSE_VERSION = (3, 11)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("FIBRANK_THREADS", raising=False)
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, _sha(out), _sha(err)


# " ".join(argv) -> (exit code, sha256 of stdout, sha256 of stderr)
EXPECTED = {
    "rank 10 --text": (0, "0e2de5298e75891f4f302a4b45102f4703c07856aa636e50a3c34f1e0a89afeb", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 10 --csv": (0, "8b10f20194e8b10022763682d20a0e09f2ad6f2623613ef4ca0fb00dfefccb58", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 10 --json": (0, "3a490f52b22ee8174d0bdebcd9545074dd3b4f3de614936b788b92579659f95e", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 10 --a1 2 --a2 1 --text": (0, "5996addac46f4dc1dee1f3a6949acc08ce6b603e2e116fac9f4f70e7c3b5bfa7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 10 --a1 2 --a2 1 --csv": (0, "39c44d8fdabd7cebf0a5fc075edf780167ba4f79d7aa5cfcf9ee13f71c95262a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 10 --a1 2 --a2 1 --json": (0, "6df7a813fa330347fc5f749dfa98eb90dad5ccc7a18f4018a6a054808fe91c3b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 123456 --text": (0, "0b210b3a8f3f6ff0b52d3526ead993b888a1df1f0cf39980605100c3bdcd2146", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 123456 --csv": (0, "d768ce3cfa54f54164c03553125da206b412592dcc5778bb820892f35435fc2d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 123456 --json": (0, "1d6b0c2e882d31b350979ac4529fff72163c57d46e70fb20dca0b456ea5d9c63", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 123456 --a1 2 --a2 1 --text": (0, "141c93432435a2a376ab94a5a83fa7edb95da244fe8444a082dfc8f170a56b51", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 123456 --a1 2 --a2 1 --csv": (0, "241fd503d7e4dcfb8f7f050f58165cf21e5056348d53f41960b0382f5c112da1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 123456 --a1 2 --a2 1 --json": (0, "9126eff665bc338042e9ec514b84fbd70f4df573559faf67f4696d0a0a6d6a26", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ell 7 --text": (0, "04c80501eafaa412611c6643ef626307bff61d982b88a1e53142c2c1f963a1fc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ell 7 --csv": (0, "4aac8a25db49426aaaf312bdb8830dc954a80a6a3a6839583696339f875e9aba", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ell 7 --json": (0, "eba1717a82cb47b764a661ed570fc464ffa72a8e63879fbc90b9b5e4fdcfc2e9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ell 7 --a1 2 --a2 1 --text": (0, "7a4c0b707a53312d6c99fa9a492f30d53b934ab62454e2de01157e74dfe5e708", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ell 7 --a1 2 --a2 1 --csv": (0, "3e0011f177c1edcc116fc7f521e6c4289ad6b3640bdd1328e268cbb130a5ea28", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ell 7 --a1 2 --a2 1 --json": (0, "0be98b824dbee33d5724128df363fb990e326c6ae0258cf7cedbfb44a9a49096", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 2 --text": (0, "cfcbea162e34d1602e38c2ae39758f007ac05ad299ffd4aefe7f15963edfc7cc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 2 --csv": (0, "c05e9c1fe28d612842543b50c8f4043060b2af6adef2f497c0138af0b41cb14c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 2 --json": (0, "467c43396183874cfbdcb4fe352887fe97d7cde203563923926d05f972357520", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 2 --a1 2 --a2 1 --text": (0, "1a21308d874828d13e1becf5c892eb2d1ad670c956668088158a0e4e0a7016da", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 2 --a1 2 --a2 1 --csv": (0, "158f0d785adde0914b9b4411c5f09e9047eb65b454c74b37cf8a7395342845d2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 2 --a1 2 --a2 1 --json": (0, "94c52909ee982e9fedfb82351456502caa99d5ad84465ab9e2af5d8d5ccb5510", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 3 --text": (0, "427da881371e74c4dbef114e191895ae509e631c53865daeddb5d63f809ac2ac", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 3 --csv": (0, "cd5940c1e19640a6cb10503a058d427c42b48a699d7318ac2a96b4f38ccc4697", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 3 --json": (0, "4f7c4ad13120a910869b2b67373cba4abbe6b67d430fbcdf676ec4b87c411332", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 3 --a1 2 --a2 1 --text": (0, "427da881371e74c4dbef114e191895ae509e631c53865daeddb5d63f809ac2ac", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 3 --a1 2 --a2 1 --csv": (0, "cd5940c1e19640a6cb10503a058d427c42b48a699d7318ac2a96b4f38ccc4697", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 3 --a1 2 --a2 1 --json": (0, "1f2cf63ce705055000c5626a17afe59269b63ca4df7f4b84cf5a486d4d719133", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "density 2 --depth 500 --text": (0, "69900a709806328127ae92d79b67bd3dd58b6df031a411a55fd51377c2b70451", "f12d612c1e358feb4146fa13d83d4509be352a9e9caa37eebf126162f49677f0"),
    "density 2 --depth 500 --csv": (0, "17abc187b1d8cd3fdccf533f6b2ccba047e83a86a2eda8689f40a42ca79b3279", "f12d612c1e358feb4146fa13d83d4509be352a9e9caa37eebf126162f49677f0"),
    "density 2 --depth 500 --json": (0, "d395a4e2ebdc9aebb516f325d96b44f0ac91a583b3b3bdbb0efb5d965c84027e", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "density 2 --depth 500 --a1 2 --a2 1 --text": (0, "5b1ed8af70cd8d92fef1f5f952ad663766575c5b1ef45aa2acf559cd42925c3f", "f12d612c1e358feb4146fa13d83d4509be352a9e9caa37eebf126162f49677f0"),
    "density 2 --depth 500 --a1 2 --a2 1 --csv": (0, "3b450e2b08b1a77e86b8b3bdbba7c7d986fa850b50601769740735cc6ba5a124", "f12d612c1e358feb4146fa13d83d4509be352a9e9caa37eebf126162f49677f0"),
    "density 2 --depth 500 --a1 2 --a2 1 --json": (0, "a962efd1c7920d83d31ef5a6ac068225a17886694e251d0768b54efab5ac437b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "density-b 2 --depth 500 --text": (0, "8a1d48a4d59f43385d03a0caadf647cf3efb2cfe600856cb75045d5fce67b64c", "f12d612c1e358feb4146fa13d83d4509be352a9e9caa37eebf126162f49677f0"),
    "density-b 2 --depth 500 --csv": (0, "68f16dbacc83c0bd55d3b1ed63a067ff2021ce6645c29578eb42203f23c02415", "f12d612c1e358feb4146fa13d83d4509be352a9e9caa37eebf126162f49677f0"),
    "density-b 2 --depth 500 --json": (0, "0186acab6148afbda79a5be3fc57a6fa44a188aec8700689bc641c5a272813bc", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "density-b 2 --depth 500 --a1 2 --a2 1 --text": (0, "2166b05492120f8e1967bf8c70298683dda9f9262743168b3bcfac65745adab3", "f12d612c1e358feb4146fa13d83d4509be352a9e9caa37eebf126162f49677f0"),
    "density-b 2 --depth 500 --a1 2 --a2 1 --csv": (0, "7f3c005038fb40b022bd6f2bfc9d99921ad49030fd7e8b530f30a5ae38745e26", "f12d612c1e358feb4146fa13d83d4509be352a9e9caa37eebf126162f49677f0"),
    "density-b 2 --depth 500 --a1 2 --a2 1 --json": (0, "006374037accfe41c8324c0ec223946a0920a01aca5fbd409dfcd7c04b3c674f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "iecheck 12 --depth 300 --text": (0, "a8c8011995cd077ffb71b823411820d9a8fb37bb3f50fb09b06ebd9598c202a1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "iecheck 12 --depth 300 --csv": (0, "8dcc081c21fcfdf8fb006d4d6c496d3412321b08a65c78bc6e9ee907d5895627", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "iecheck 12 --depth 300 --json": (0, "07581765236da7d836acd8a968e21c900f717f4a08ff50f9df90f8b7b86dd394", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "iecheck 12 --depth 300 --a1 2 --a2 1 --text": (0, "93fa33badb2b592d059cf90060669019a41a16d98035e6a897c6943c36840430", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "iecheck 12 --depth 300 --a1 2 --a2 1 --csv": (0, "a46728b1f3f12c4c0c4e89986332f2367188687295a07de4343b392e4cf73254", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "iecheck 12 --depth 300 --a1 2 --a2 1 --json": (0, "3ee811bff6ecf3bc008f484fae87870bbab8d76a0841809afaa337ff83057ba3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 5 --limit 3000 --checkpoints 3000 1000 --text": (0, "047d73057302802abbc1c5b8f513f857f982fe49d5af2bafa882ca448b86ae60", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 5 --limit 3000 --checkpoints 3000 1000 --csv": (0, "ba34a239828b6cdf3160562cf442ffe511f1fe848620fa5ffcee459b0fd34c47", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 5 --limit 3000 --checkpoints 3000 1000 --json": (0, "b8e2ef2a580f23b87d88bcd374bb53388055ab7446746be29c342dcc542a180f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 5 --limit 3000 --checkpoints 3000 1000 --a1 2 --a2 1 --text": (0, "35e995b6e69024878a9bfd277b93511aed8e232c627701c165715c98cc35ca50", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 5 --limit 3000 --checkpoints 3000 1000 --a1 2 --a2 1 --csv": (0, "9a652497fccd634295b5e94f5dc5bbd54ad9280c44a9db684236aef7c0a968b4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 5 --limit 3000 --checkpoints 3000 1000 --a1 2 --a2 1 --json": (0, "0fcb9187c0cca624e460652c9c5d2479aa48240ba3ab0acc06795834d7c735ec", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 2 --limit 2000 --checkpoints 500 2000 --witnesses 4 --text": (0, "49bbd6feab787c73c2b942222150d3ecac93abebcb2e3caa9372d429939de7e9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 2 --limit 2000 --checkpoints 500 2000 --witnesses 4 --csv": (0, "b285b409e19d395f88cbde64f63e50f0e718784a00fe353c1afbc4e4643f08c7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 2 --limit 2000 --checkpoints 500 2000 --witnesses 4 --json": (0, "db1eae44fdec94165fe284bbbc8d664a1297d345880d0912a218138ab2b8722e", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 2 --limit 2000 --checkpoints 500 2000 --witnesses 4 --a1 2 --a2 1 --text": (0, "4c3a5beb8185479b2a13f151694e3e599ad1d13d7ef9ddb0a7c1ca0b80bea9fa", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 2 --limit 2000 --checkpoints 500 2000 --witnesses 4 --a1 2 --a2 1 --csv": (0, "404560cec961f1322a7c088d624356e3ee40e2e771eed5cd77e8ac854c834ce8", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count 2 --limit 2000 --checkpoints 500 2000 --witnesses 4 --a1 2 --a2 1 --json": (0, "362430bc2e80afb16da6ca97992fd2f0a2c59e2dbdbeb8b8e7ebed6cc396e82c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "witnesses 2 --max 5 --limit 3000 --text": (0, "46863e91e4b81843caf3e73a850850833d1171ada80a7b1709819716ed8ec1c4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "witnesses 2 --max 5 --limit 3000 --csv": (0, "4992a628198da82afe9fa6c1cb117496961826d95525b59441bd0b286c1b76a0", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "witnesses 2 --max 5 --limit 3000 --json": (0, "5d5b33c6fa14a2967c0091dbe6f660f149a6969e17ae7cbf7bbbff4029f84d80", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "witnesses 2 --max 5 --limit 3000 --a1 2 --a2 1 --text": (0, "2a2dcc6b1f8656e3aff605a07024d48dd379d77b7275dec1f9cc83e38c519d71", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "witnesses 2 --max 5 --limit 3000 --a1 2 --a2 1 --csv": (0, "838bfdcae786790f478d39c9e38056d864ffd17c739197046ab1a808bb94461b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "witnesses 2 --max 5 --limit 3000 --a1 2 --a2 1 --json": (0, "b1857679da2e7c4594d0c809b4544b595aff3452ac16920d2094327a077c2aa3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-structure 2 --limit 5000 --text": (0, "ad17a9fb9e2ed0df3a3ff3c5a3921971803ad64708f8c1d85e1baf28dc982448", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-structure 2 --limit 5000 --csv": (0, "93b8443073df786ababc9ecdbe3ad2026886c464d92456fa68b603458165eb4a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-structure 2 --limit 5000 --json": (0, "a25e2ebccd54e0b0e0bbecc42aff22c359e1a0d35a4d3adbde7244156992f2c5", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-structure 2 --limit 5000 --a1 2 --a2 1 --text": (0, "ad17a9fb9e2ed0df3a3ff3c5a3921971803ad64708f8c1d85e1baf28dc982448", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-structure 2 --limit 5000 --a1 2 --a2 1 --csv": (0, "93b8443073df786ababc9ecdbe3ad2026886c464d92456fa68b603458165eb4a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify-structure 2 --limit 5000 --a1 2 --a2 1 --json": (0, "2098345c922ec294d498b3994a76279616c4b29b4ebcab50dd46ec2922d6ca30", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scan-b --limit 500 --checkpoints 100 500 --text": (0, "bf3db8f2e9a737231a330a06dfaec7585fa28d4bd9f7f285c5d5fa8892ef3f09", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scan-b --limit 500 --checkpoints 100 500 --csv": (0, "0cfd44ecdf8e6d343458c435e22097222ce4c7749a5d0143d384f34fc2d70af6", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scan-b --limit 500 --checkpoints 100 500 --json": (0, "fe7392f24b32a801bdc81d2d28f30ca6aa3f7bee6b142cea54bcd46cb9078781", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scan-b --limit 500 --checkpoints 100 500 --a1 2 --a2 1 --text": (0, "d74d8d72a73582ef28bf0ebfee7cbc28a69dc58ecf030341a63050eaf9a82f61", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scan-b --limit 500 --checkpoints 100 500 --a1 2 --a2 1 --csv": (0, "bfdb89edeaee82d5aea58fe390e6a628209e5c6de9970797b989062d575fea34", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scan-b --limit 500 --checkpoints 100 500 --a1 2 --a2 1 --json": (0, "4fd1b9f92485989313918d72017f1958ca25cdd8b585231840eb0fd41ae5a286", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lowrank --gamma 1/3 --limit 5000 --checkpoints 1000 5000 --text": (0, "5307ab80c0c3e33ce175cdd440231d9df88650e99bd7269b596f399ca39d7c8a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lowrank --gamma 1/3 --limit 5000 --checkpoints 1000 5000 --csv": (0, "bc65a8e908a2954e4196647fdd16b242f81cc87384a42bb952fcaba8c220e9a2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lowrank --gamma 1/3 --limit 5000 --checkpoints 1000 5000 --json": (0, "ebea0feb5599213ab26c8e48f04efc09173ca19ffe9d61cffa93678b5a632f92", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lowrank --gamma 1/3 --limit 5000 --checkpoints 1000 5000 --a1 2 --a2 1 --text": (0, "5307ab80c0c3e33ce175cdd440231d9df88650e99bd7269b596f399ca39d7c8a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lowrank --gamma 1/3 --limit 5000 --checkpoints 1000 5000 --a1 2 --a2 1 --csv": (0, "bc65a8e908a2954e4196647fdd16b242f81cc87384a42bb952fcaba8c220e9a2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lowrank --gamma 1/3 --limit 5000 --checkpoints 1000 5000 --a1 2 --a2 1 --json": (0, "c9bfcc044fc1ca84e7598949f6007c7ac7e2e8c07f72f29ec1512336531b4cc2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ellsum --limit 200 --text": (0, "a804a52dfefb14ed357eb7d36293f45c48d97318696dedfaa6e3b339ecbee926", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ellsum --limit 200 --csv": (0, "554daffb6b1340b4d5893820857585a971bfeb087f7e124c00ae208a4cd593fb", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ellsum --limit 200 --json": (0, "9e8f52c2d7419bc9d55b9489fb9db1b565c5ac0bfc218fcd2eeafa9db8b37f9a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ellsum --limit 200 --a1 2 --a2 1 --text": (0, "cd71023b04a2367380b3dad07019de897c02f538ae09f050bdd67a55aefd882c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ellsum --limit 200 --a1 2 --a2 1 --csv": (0, "ee6bf697b7b627c5dc2d8d0e37c3244e3005379367826a6c64bf3b9fabebc911", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ellsum --limit 200 --a1 2 --a2 1 --json": (0, "9dfaa71dd9bacd35ece09e38ac9857f3c56cd8c1772a9c321bd3fbd0caaa186e", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nonmult 1 --pbound 30 --limit 2000 --text": (0, "be61f2c2c578578c82fa3156a52262a5debb81a46a61f5f81af2ffaac8b682b0", "7e1446e718e48da774ce7a971a2e669ea2fe04ad6ee3612ad407a684bb42d24e"),
    "nonmult 1 --pbound 30 --limit 2000 --csv": (0, "31aad77132fe2ce5e0f6dfbc13c90244fff333120909aa0f1a53e7fad89751e7", "7e1446e718e48da774ce7a971a2e669ea2fe04ad6ee3612ad407a684bb42d24e"),
    "nonmult 1 --pbound 30 --limit 2000 --json": (0, "dadf6f175ccfbcf5a0a96ba3e5bc704a4303dc4c36843946078b6bc2b2db1d0c", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "nonmult 1 --pbound 30 --limit 2000 --a1 2 --a2 1 --text": (0, "aea5ab2c12f5def22ee327f910be51b28df3225cc970b37830e371044289045b", "7e1446e718e48da774ce7a971a2e669ea2fe04ad6ee3612ad407a684bb42d24e"),
    "nonmult 1 --pbound 30 --limit 2000 --a1 2 --a2 1 --csv": (0, "61b225f7dcad8bd6b9906beb794c730aa2b0229e218d691d882652a17102f6c5", "7e1446e718e48da774ce7a971a2e669ea2fe04ad6ee3612ad407a684bb42d24e"),
    "nonmult 1 --pbound 30 --limit 2000 --a1 2 --a2 1 --json": (0, "60aaf36ccfd1e16f2297a86a811c98ae02a20351c8998e7255525ee9ccd76be5", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 3 --a1 1 --a2 -1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "7b1aa956b5e1a12acf9d08251b6e04c614b2107ce50140b70a49dd46c4d594f6"),
    "rank 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "6b87945da48323e8facd348c236d056672e31e0254690ee3eb344e465b42f9e3"),
    "--help": (0, "ecfc7cfb687661f960cbacaf52c895576d1e6eb8958e7ffade1d969a989c7b0b", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "count --help": (0, "74d8d1181a8355830740fe6468ada73f3f7d6671c2dc966966d6f448b4d3c975", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lowrank --help": (0, "c3ec1b4ed6a18c09c8d051d5d61a2513b8fb9cdd115f9cb35097ff33fcba2745", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "witnesses --help": (0, "b5fdb8be5f736f73b4d77be74faa07b23e1175c8477706adea04b41c1e7c272d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 3 --a1 1 --a2 -3": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "17621f0851608548a1b8048cdda12a0847c892c01f372f420370ba6f9f78879e"),
    "verify-structure 3 --limit 100 --json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e872490797388708e53af88289eb88368d97a815715b654717bd92d7c6c1e034"),
    "member 9223372036854775808": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "14aa7dae290f0c094c76add2a2703103fd77684a4d43de72579c65b579219e1f"),
    "ellsum --limit 100 --a1 1 --a2 3 --json": (0, "5be36bf1d011ac7be67e51011afa0235c8d1fccf4561b551d0c96416daf71611", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "member 3 --a1 1 --a2 3 --json": (0, "5797c955fbf95b70b37667b372f44ea423f337725ec6cea01d305800a8e8089d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 13 --a1 1 --a2 3": (0, "275157a70148de97b44cf7f692738be5c35dbdac3b016cf325e16f32cf5728bd", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rank 26 --a1 3 --a2 1": (0, "06ed9c375d8184dc0ef09c241d891c314a4793da617e64fb98ff1370cb21569a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_bytes(argv, capsys, monkeypatch):
    if argv in ARGPARSE_CASES and sys.version_info[:2] != ARGPARSE_VERSION:
        pytest.skip("argparse message layout is pinned for Python 3.11")
    assert run_case(argv, capsys, monkeypatch) == EXPECTED[" ".join(argv)]


def test_every_case_has_an_expectation():
    assert sorted(EXPECTED) == sorted(" ".join(argv) for argv in CASES)


# jobs the size of the density benchmark's, recorded with the plain pair
# summer before the series sums grouped their large primes, so the grouped
# summer is checked against recorded bytes and not only against itself:
# " ".join(argv) -> (sha256 of stdout, length of stdout)
SERIES_JOBS = {
    "density 1 --depth 30000 --json": ("fa51818ceca40ff35d11ecdfebeb6e9f7cd84a5f851e01a5ffd859b410f2e945", 129146),
    "density-b 5 --depth 30000 --a1 2 --a2 1 --json": ("9b2b404efd51667c5f91d14cd4d3e591412731138eaf06c773fd8926db955a60", 127210),
    "iecheck 12 --depth 15000 --json": ("13df61a4c76d6fc27869cd7f1f7a30ce5d7a5b875ac417eae01a5d6d08d220ee", 25287),
}


@pytest.mark.parametrize("line", sorted(SERIES_JOBS))
def test_series_job_bytes(line, capsys, monkeypatch):
    monkeypatch.delenv("FIBRANK_THREADS", raising=False)
    code = main(line.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert (_sha(out), len(out.encode())) == SERIES_JOBS[line]
