"""File formats and the seeded synthetic-corpus generator.

Formats (all UTF-8 text, floats written with 17 significant digits so that
save -> load round-trips are exact):

* posterior matrix: first line ``frames classes``, at least 1 frame and 2
  classes, then one line per frame with space-separated probabilities;
  rows must sum to 1 within 1e-6, as in every `PosteriorMatrix`, so
  `save_posteriors` writes only files that `load_posteriors` accepts.
* HMM: JSON with fields num_states, initial, transitions, labels,
  state_to_class; probabilities are stored linearly and converted to logs
  on load. Labels must be strings. Unknown fields are rejected.
  `load_hmm` checks the JSON types and `num_states`; `HmmModel` the rest.
* priors: whitespace-separated positive numbers, one per class.
* transcript: one token per line.
* corpus manifest: JSON listing utterance ids and their posterior and
  reference files (all non-empty strings), plus the generator seed and
  noise parameters. Unknown keys are rejected. A `CorpusUtterance` holds
  its paths as strings, each the `os.fspath` of its directory / file name,
  and its reference tokens: `generate_corpus` fills them from the tokens
  it writes, and `load_manifest` reads each reference file once, through
  `load_reference`. So a corpus an experiment generates is never read
  back for its references.

The number formats (posterior matrices and priors) are ASCII without "_":
int() and float() read any Unicode decimal digit (a full-width zero, an
Arabic-Indic one) and digit-grouping underscores, and str.split() splits at
any Unicode space, so a posterior or priors file holding a non-ASCII
character or "_" is refused.

`read_text` is the one reader for every text file the program reads, and
`write_text` the one writer for every file the program writes. Both use
raw file descriptors (`os.open`, `os.read`, `os.write`), not file objects,
and an OSError from either names the file. A
regular file that already holds exactly the bytes to be written is left
untouched: a rerun with the same inputs keeps the file's inode and mtime,
and an identical read-only file is not an error. Any other target (missing,
another size or other bytes, a FIFO, device or directory) gets a plain
truncating write, so a crash mid-write is no different from before; a
non-regular file is never read.

`load_json` reads every JSON document; `json_object` is the one key check
for the objects in them, and `json_field` the one type check for their fields.

The corpus generator simulates an acoustic model's posteriors along a state
path sampled from the HMM. Randomness comes from SplitMix64, a named
64-bit generator with defined integer arithmetic, so the draws are the same
on every platform. The corpus bytes are tested to be reproducible only with
the same numpy SIMD level and a libm whose `log1p` rounds as glibc 2.36
does (`tests/test_corpus_digests.py`): `math.log1p` is not correctly
rounded everywhere.

SplitMix64 is counter-based: draw k of the stream seeded with s is a fixed
mix of s + k*gamma. `splitmix64_doubles` therefore computes many draws of
many streams at once in wrapping uint64 arithmetic, and `generate_corpus`
takes every utterance's draws from it in blocks, giving the same draws in
the same places as the scalar SplitMix64 reference in the test suite
(`tests/oracles.py`). The arithmetic on the draws is kept as that scalar
generator does it, so corpora stay byte for byte the same: exponentials
use `math.log1p` (numpy's `log1p` differs from it in the last bit on some
inputs), cumulative probabilities add in row order, and row totals use
numpy's `sum`. A distribution's last running sum is stored as inf
(`_capped_sums`), so a draw past every sum takes the last state.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import stat
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NoReturn

import numpy as np

from .decoder import HmmModel, path_tokens
from .errors import DataFormatError, ValidationError
from .posteriors import PosteriorMatrix, _row_sum_error, check_row_sums, numeric_array

__all__ = [
    "NoiseSpec",
    "CorpusUtterance",
    "CorpusManifest",
    "splitmix64_doubles",
    "format_float",
    "read_text",
    "write_text",
    "json_field",
    "json_object",
    "load_json",
    "load_posteriors",
    "save_posteriors",
    "load_hmm",
    "load_transcript",
    "load_reference",
    "save_transcript",
    "load_priors",
    "load_manifest",
    "check_corpus_size",
    "generate_corpus",
]

MANIFEST_NAME = "manifest.json"


# os.O_BINARY exists only on Windows, where it stops newline translation.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)

# Bytes asked of one os.read, below glibc's default mmap threshold (128 KiB):
# the buffer comes from the heap and is cut down to the bytes read. Larger
# requests are mapped, which raises that threshold: with 1 MiB reads, RSS
# after 8 in-process demo_k3 experiments read 46.5 MB, against 43.1 MB with
# 64 KiB reads and 44.5 MB with file objects.
_READ_SIZE = 1 << 16


def _naming(exc: OSError, path) -> OSError:
    """exc with path as its file name: os.read, os.write and os.close name none."""
    return OSError(exc.errno, exc.strerror, os.fspath(path))


def read_text(path) -> str:
    """The UTF-8 text of the file at path, newlines as they are.

    The bytes come through a raw descriptor (`os.open` and `os.read`, no
    file object and no buffer of its own), looping until a read returns
    nothing. An OSError names path, as `open` would, also where `os.read`
    fails: a directory, say, opens and then fails to read with EISDIR.
    A byte that is not UTF-8 is a DataFormatError at line 1 + the newlines before it.
    """
    fd = os.open(path, _READ_FLAGS)
    chunks = []
    try:
        try:
            while chunk := os.read(fd, _READ_SIZE):  # a short read is not the end
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:  # a directory opens, then its read fails with EISDIR
        raise _naming(exc, path) from None
    data = b"".join(chunks)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8, unless path is a regular file holding those bytes.

    Newlines are written as given. Truncating and rewriting an existing file
    costs far more than reading it back, so a regular file of the same size
    is compared first and left alone when its bytes are equal. The target
    is stat'ed before it is opened, so a FIFO or device is never read, then
    read with one `os.read` of a byte more than the text (a file that changed
    size since reads differently). A short write is followed by a write of
    the rest, and an OSError names path.
    """
    data = text.encode("utf-8")
    try:
        if stat.S_ISREG((st := os.stat(path)).st_mode) and st.st_size == len(data):
            fd = os.open(path, _READ_FLAGS)
            try:
                if os.read(fd, len(data) + 1) == data:
                    return
            finally:
                os.close(fd)
    except OSError:
        pass  # missing or unreadable: the write below succeeds or says why
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise _naming(exc, path) from None


_FLOAT_FORMAT = "%.17g"


def format_float(x: float) -> str:
    """17 significant digits: enough to reproduce any float64 exactly."""
    return _FLOAT_FORMAT % x


# ---------------------------------------------------------------------------
# posterior matrices
# ---------------------------------------------------------------------------

def load_posteriors(path) -> PosteriorMatrix:
    """Read a posterior matrix file, checking every row against the format.

    The header is checked first, at line 1. All values are then parsed in
    one bulk call and checked as one array: its shape, then its entries and
    row sums by `PosteriorMatrix`. If any of that fails,
    `_raise_first_bad_line` walks the file to name the bad line. int() and
    float() take digit-grouping underscores ("1_0" is 10); the format has
    none, so a file holding "_" takes the refusing paths too. A non-ASCII
    character is refused first (`_ascii_text`).
    """
    text = _ascii_text(path)
    grouped = "_" in text
    lines = text.splitlines()
    del text  # freed before the bulk parse: lines hold the same characters
    if not lines:
        raise DataFormatError(path, 1, "empty file; expected a 'frames classes' header")
    header = lines[0].split()
    if len(header) != 2:
        raise DataFormatError(
            path, 1, f"malformed header {lines[0]!r}; expected 'frames classes'"
        )
    try:
        if "_" in lines[0]:
            raise ValueError
        frames, classes = int(header[0]), int(header[1])
    except ValueError:
        raise DataFormatError(
            path, 1, f"malformed header {lines[0]!r}; expected two integers"
        ) from None
    rows = [tokens for tokens in map(str.split, lines[1:]) if tokens]
    if len(rows) != frames:
        raise DataFormatError(
            path, len(lines), f"expected {frames} data rows, found {len(rows)}"
        )
    if classes < 0:
        raise DataFormatError(
            path, 1, f"malformed header {lines[0]!r}; class count must be >= 0"
        )
    if frames < 1 or classes < 2:
        raise DataFormatError(
            path, 1, f"malformed header {lines[0]!r}; needs >= 1 frame and >= 2 classes"
        )
    try:
        values = np.array(rows, dtype=np.float64)
        if values.shape == (frames, classes) and not grouped:
            return PosteriorMatrix(values)
    except ValueError:  # ragged rows, a token float() rejects, a bad entry or row sum
        pass
    _raise_first_bad_line(path, lines, classes)


def _raise_first_bad_line(path: str | os.PathLike, lines: list[str], classes: int) -> NoReturn:
    """Raise a DataFormatError naming the first data line that breaks the format.

    `load_posteriors` calls it only when its bulk checks of the rows failed.
    """
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != classes:
            raise DataFormatError(
                path, lineno, f"expected {classes} values, found {len(tokens)}"
            )
        bad = next((tok for tok in tokens if not _is_float(tok)), None)
        if bad is not None:
            raise DataFormatError(path, lineno, f"non-numeric token {bad!r}")
        row = np.array([float(tok) for tok in tokens])
        if not ((row >= 0) & (row <= 1)).all():
            raise DataFormatError(path, lineno, "probabilities must be in [0, 1]")
        if check_row_sums(row[None, :]) is not None:
            raise DataFormatError(path, lineno, str(_row_sum_error("row", row)))
    raise DataFormatError(path, None, "rows fail the bulk checks, but no single line does")


def _ascii_text(path) -> str:
    """The text of the file at path if it is ASCII; else a DataFormatError naming the first
    other character and its line, counted as `str.splitlines` counts lines.

    `str.isascii` costs O(1): CPython records whether a string is ASCII.
    """
    text = read_text(path)
    if not text.isascii():
        i, ch = next((i, ch) for i, ch in enumerate(text) if not ch.isascii())
        raise DataFormatError(path, len(text[:i + 1].splitlines()),
                              f"non-ASCII character {ch!r} (U+{ord(ch):04X})")
    return text


def _is_float(tok: str) -> bool:
    """Whether tok is a number of the text formats: one float() reads, without "_"."""
    if "_" in tok:
        return False
    try:
        float(tok)
        return True
    except ValueError:
        return False


def save_posteriors(matrix: PosteriorMatrix, path) -> None:
    """Write the matrix in the posterior format, all values in one format call.

    `PosteriorMatrix` holds the format's rules, so `load_posteriors` reads
    the file back as the same matrix.
    """
    row = " ".join([_FLOAT_FORMAT] * matrix.classes)
    template = "\n".join([f"{matrix.frames} {matrix.classes}"] + [row] * matrix.frames)
    text = template % tuple(matrix.values.ravel().tolist())
    write_text(path, text + "\n")


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def load_json(path: Path):
    """The JSON document at path; a syntax error names its line, any other parse error the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(path, None, f"invalid JSON: {exc}") from None


_JSON_KINDS = {int: "an integer", numbers.Real: "a number", str: "a non-empty string",
               bool: "true or false", list: "a list"}


def json_field(value, kind: type, field: str, what: str | None = None):
    """value if it has the JSON type kind (a key of _JSON_KINDS), else a ValidationError.

    A bool is never an integer or a number, and "" never a string: it names
    no file. The message names field, and what (if given) in place of the type.
    """
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)) and value != "":
        return value
    raise ValidationError(f"field '{field}' must be {what or _JSON_KINDS[kind]}, got {value!r}")


def json_object(value, required, optional=(), field: str | None = None) -> dict:
    """value if it is a JSON object with every key in required and the rest in optional.

    field names the object as in `json_field` (None: a whole document, which
    the caller names) and its keys as field.key; the first missing key is named.
    """
    where, prefix = ("", "") if field is None else (f"field '{field}' ", f"{field}.")
    if not isinstance(value, dict):
        raise ValidationError(f"{where}must be a JSON object")
    unknown = value.keys() - {*required, *optional}
    if unknown:
        raise ValidationError(f"{where}has unknown fields {sorted(unknown)}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValidationError(f"field '{prefix}{missing[0]}' is missing")
    return value


# ---------------------------------------------------------------------------
# HMM documents
# ---------------------------------------------------------------------------

def load_hmm(path) -> HmmModel:
    path = Path(path)
    doc = load_json(path)
    try:
        json_object(doc, ("num_states", "initial", "transitions", "labels", "state_to_class"))
        n = doc["num_states"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValidationError(f"num_states must be a positive integer, got {n!r}")
        init = numeric_array(doc["initial"], "initial")
        if init.shape != (n,):
            raise ValidationError(f"initial must have {n} entries, got shape {init.shape}")
        labels = doc["labels"]
        s2c = doc["state_to_class"]
        if not isinstance(labels, list):
            raise ValidationError(f"labels must be a list of strings, got {labels!r}")
        if not isinstance(s2c, list):
            raise ValidationError(f"state_to_class must be a list, got {s2c!r}")
        return HmmModel.from_probs(init, doc["transitions"], labels, s2c)
    except ValidationError as exc:
        raise DataFormatError(path, None, str(exc)) from None


# ---------------------------------------------------------------------------
# transcripts and priors
# ---------------------------------------------------------------------------

def load_transcript(path) -> tuple[str, ...]:
    tokens = [ln.strip() for ln in read_text(path).splitlines()]
    return tuple(tok for tok in tokens if tok)


def load_reference(path) -> tuple[str, ...]:
    """The reference transcript in path; an empty one is refused, naming the file.

    `align_and_score` refuses an empty reference too, but cannot name the file.
    """
    tokens = load_transcript(path)
    if not tokens:
        raise DataFormatError(path, None, "reference must be non-empty")
    return tokens


def save_transcript(tokens, path) -> None:
    write_text(path, "".join(f"{tok}\n" for tok in tokens))


def load_priors(path) -> np.ndarray:
    text = _ascii_text(path)
    tokens = text.split()
    if not tokens:
        raise DataFormatError(path, 1, "empty priors file")
    try:
        if "_" in text:  # float() reads "0.2_5" as 0.25
            raise ValueError
        vals = np.array([float(tok) for tok in tokens], dtype=np.float64)
    except ValueError:
        bad = next(tok for tok in tokens if not _is_float(tok))
        raise DataFormatError(path, None, f"non-numeric token {bad!r}") from None
    if not (np.isfinite(vals) & (vals > 0.0)).all():
        raise DataFormatError(path, None, "priors must be finite and > 0")
    return vals


# ---------------------------------------------------------------------------
# corpus manifest
# ---------------------------------------------------------------------------

# Largest finite noise concentration. A class weight -log1p(-u) is below 37
# (53 ln 2 for the largest uniform, 1 - 2**-53), so the true class's weight
# times this is below 4e301 and a row's sum of weights stays finite.
MAX_CONCENTRATION = 1e300


@dataclass(frozen=True)
class NoiseSpec:
    """Synthetic acoustic-noise knobs.

    concentration scales how much posterior mass lands on the true class
    (math.inf gives exact one-hot rows); a finite one may be at most
    MAX_CONCENTRATION. confusion_rate is the probability that a frame's
    mass is re-centered on a uniformly chosen wrong class.
    Both must be real numbers and are stored as floats; seed must be an
    int. Nothing else is coerced: a string, a bool or a fractional seed is
    refused, and the message names the field as ``noise.<name>``.
    """

    concentration: float
    confusion_rate: float
    seed: int

    def __post_init__(self):
        for name in ("concentration", "confusion_rate"):
            value = json_field(getattr(self, name), numbers.Real, f"noise.{name}")
            object.__setattr__(self, name, float(value))
        if math.isnan(self.concentration) or self.concentration <= 0.0:
            raise ValidationError(
                f"field 'noise.concentration' must be > 0, got {self.concentration!r}"
            )
        if MAX_CONCENTRATION < self.concentration < math.inf:
            raise ValidationError(
                f"field 'noise.concentration' must be at most {MAX_CONCENTRATION:g} or inf, "
                f"got {self.concentration!r}"
            )
        if not 0.0 <= self.confusion_rate <= 1.0:
            raise ValidationError(
                f"field 'noise.confusion_rate' must be in [0, 1], got {self.confusion_rate!r}"
            )
        if not 0 <= json_field(self.seed, int, "noise.seed") < 2**64:
            raise ValidationError("field 'noise.seed' must fit in 64 bits")

    @classmethod
    def from_json(cls, doc) -> "NoiseSpec":
        """The spec stored as a JSON ``noise`` object: its three fields and no others."""
        names = [f.name for f in fields(cls)]
        json_object(doc, names, field="noise")
        return cls(*(doc[name] for name in names))


@dataclass(frozen=True)
class CorpusUtterance:
    """One utterance of a corpus: its id, its two files and the tokens of its reference file."""

    utterance_id: str
    posteriors_path: str
    reference_path: str
    reference: tuple[str, ...]


@dataclass(frozen=True)
class CorpusManifest:
    utterances: tuple[CorpusUtterance, ...]
    noise: NoiseSpec | None = None

    def __post_init__(self):
        ids = [u.utterance_id for u in self.utterances]
        if len(set(ids)) != len(ids):
            raise ValidationError("utterance ids must be unique")


def load_manifest(path) -> CorpusManifest:
    """The manifest at path, with each utterance's reference read once by `load_reference`.

    An error in the manifest names it; one in a reference file (empty, not
    UTF-8) names that file.
    """
    path = Path(path)
    doc = load_json(path)
    base = path.parent
    keys = ("id", "posteriors", "reference")
    try:
        json_object(doc, ("utterances",), ("noise",))
        noise = None if doc.get("noise") is None else NoiseSpec.from_json(doc["noise"])
        entries = json_field(doc["utterances"], list, "utterances", "a list of objects")
        utts = []
        for i, entry in enumerate(entries):
            json_object(entry, keys, field=f"utterances[{i}]")
            uid, post, ref = (json_field(entry[k], str, f"utterances[{i}].{k}") for k in keys)
            paths = (base / post, base / ref)
            for p in paths:
                if not p.exists():
                    raise ValidationError(f"referenced file {p} does not exist")
            post, ref = map(os.fspath, paths)
            utts.append(CorpusUtterance(uid, post, ref, load_reference(ref)))
        return CorpusManifest(tuple(utts), noise)
    except DataFormatError:
        raise  # a reference file's own error, which names that file
    except ValidationError as exc:
        raise DataFormatError(path, None, str(exc)) from None


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

# Draws `generate_corpus` holds at once. Utterances are generated in blocks of
# at most this many draws (one that needs more gets a block of its own), so
# its memory does not grow with the corpus.
_BLOCK_DRAWS = 1 << 14

# Draws one utterance may need, 8 MiB as float64: a frames range whose
# maximum needs more is refused before any file is written. At 20 classes
# that allows utterances of up to 45590 frames.
MAX_UTTERANCE_DRAWS = 1 << 20

# Utterances one corpus may hold. Each is two files and a manifest entry
# that stays in memory until the manifest is written, so a million makes two
# million files and a manifest of about 110 MB: far past any corpus this
# pipeline scores in one experiment, yet an unbounded count keeps writing
# files until the disk is full.
MAX_UTTERANCES = 10**6

_U64_MASK = (1 << 64) - 1  # a seed + i that passes 2**64 wraps


def splitmix64_doubles(seeds, n: int) -> np.ndarray:
    """The first n doubles of each seed's SplitMix64 stream, one row per seed.

    Draw k (counting from 1) of a stream is a fixed mix of seed + k*gamma,
    so every draw is computed at once; uint64 arithmetic wraps as the scalar
    generator's masks do. Seeds must lie in [0, 2**64).
    """
    z = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1) + (
        np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    )
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _below(u: float, n: int) -> int:
    """The scalar generator's `below(n)` given its draw u."""
    return min(int(u * n), n - 1)


def _capped_sums(probs: list[float]) -> list[float]:
    """probs' running sums, the last one inf: `bisect_right` on them draws as `categorical`."""
    return [*itertools.accumulate(probs[:-1]), math.inf]


def _posterior_rows(draws: np.ndarray, centers: list[int], starts: list[int],
                    classes: int, concentration: float) -> np.ndarray:
    """One posterior row per frame, centered on centers[f].

    starts[f] is the flat index in draws of the first of frame f's `classes`
    uniforms; each uniform u becomes the exponential weight -log1p(-u),
    computed with `math.log1p`.
    """
    frame = np.arange(len(centers))
    centers = np.array(centers)
    if math.isinf(concentration):
        rows = np.zeros((len(centers), classes))
        rows[frame, centers] = 1.0
        return rows
    u = draws.ravel()[np.array(starts)[:, None] + np.arange(classes)]
    w = -np.array(list(map(math.log1p, (-u).ravel().tolist()))).reshape(u.shape)
    w[frame, centers] *= concentration
    total = w.sum(axis=1)
    empty = total <= 0.0  # all 53-bit uniforms were exactly 0; vanishingly unlikely
    w[frame[empty], centers[empty]] = 1.0
    total[empty] = 1.0
    return w / total[:, None]


def check_corpus_size(utterances, frames, frames_name: str = "field 'frames'") -> tuple[int, int]:
    """frames as (lo, hi) if utterances is an int in [1, MAX_UTTERANCES] and frames two
    ints with 1 <= lo <= hi.

    Nothing is converted. A range out of order is called frames_name.
    """
    if json_field(utterances, int, "utterances") < 1:
        raise ValidationError(f"field 'utterances' must be >= 1, got {utterances!r}")
    if utterances > MAX_UTTERANCES:
        raise ValidationError(
            f"field 'utterances' must be at most {MAX_UTTERANCES}, got {utterances!r}")
    if not isinstance(frames, (list, tuple)) or len(frames) != 2:
        raise ValidationError(f"field 'frames' must be [lo, hi], got {frames!r}")
    lo, hi = (json_field(bound, int, "frames") for bound in frames)
    if not 1 <= lo <= hi:
        raise ValidationError(f"{frames_name} must satisfy 1 <= lo <= hi, got {frames!r}")
    return lo, hi


def generate_corpus(
    hmm: HmmModel,
    num_utterances: int,
    frames_range: tuple[int, int],
    noise: NoiseSpec,
    out_dir,
) -> CorpusManifest:
    """Write a synthetic corpus and its manifest file under out_dir and return the manifest.

    Each utterance samples a state path from the HMM, takes the collapsed
    labels (`path_tokens`) as the reference transcript, which its
    `CorpusUtterance` holds too, and emits per-frame posterior rows
    centered (modulo confusion events) on the true class. Utterance i draws
    from SplitMix64(seed + i), with seed + i taken mod 2**64, so generation
    is reproducible and utterances are independent of corpus size or
    processing order.

    An utterance's draws are, in order: its frame count; one per frame for
    its state path; then for each frame a confusion draw, one more naming
    the wrong class if the frame is confused, and one exponential per class
    (none when the concentration is inf). The sizes must pass
    `check_corpus_size`, which names them 'utterances' and 'frames', and an
    utterance of the range's maximum length, with every frame confused,
    may need at most MAX_UTTERANCE_DRAWS draws.

    Utterances are made in blocks of about _BLOCK_DRAWS draws. A block's
    rows are checked before any of its files is written: by `check_row_sums`,
    to name a bad row by its utterance, then as one `PosteriorMatrix`.
    """
    lo, hi = check_corpus_size(num_utterances, frames_range)
    classes = hmm.max_class + 1
    if classes < 2:
        raise ValidationError("corpus generation needs at least 2 classes")
    row_draws = 0 if math.isinf(noise.concentration) else classes
    utt_draws = 1 + hi + hi * (2 + row_draws)  # with every frame confused
    if utt_draws > MAX_UTTERANCE_DRAWS:
        raise ValidationError(
            f"field 'frames' allows at most {MAX_UTTERANCE_DRAWS} draws per utterance; "
            f"{hi} frames of {classes} classes need {utt_draws}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = os.fspath(out_dir) if out_dir.parts else ""  # Path(".") / name is name alone
    init_cum = _capped_sums(np.exp(hmm.log_initial).tolist())
    trans_cum = list(map(_capped_sums, np.exp(hmm.log_transitions).tolist()))
    state_class = hmm.state_to_class.tolist()
    labels = hmm.state_labels
    rate = noise.confusion_rate
    block = max(1, _BLOCK_DRAWS // utt_draws)
    utts = []
    for first in range(0, num_utterances, block):
        ids = range(first, min(first + block, num_utterances))
        draws = splitmix64_doubles([(noise.seed + i) & _U64_MASK for i in ids], utt_draws)
        paths, centers, starts = [], [], []
        for offset, u in zip(range(0, draws.size, utt_draws), draws.tolist()):
            num_frames = lo + _below(u[0], hi - lo + 1)
            states = [s := bisect_right(init_cum, u[1])]
            for x in u[2:num_frames + 1]:
                states.append(s := bisect_right(trans_cum[s], x))
            pos = num_frames + 1  # the first frame's confusion draw
            for s in states:
                center = state_class[s]
                if u[pos] < rate:
                    k = _below(u[pos + 1], classes - 1)
                    center = k if k < center else k + 1
                    pos += 1
                centers.append(center)
                starts.append(offset + pos + 1)
                pos += 1 + row_draws
            paths.append(states)
        # The block's rows are checked before any of its files is written.
        rows = _posterior_rows(draws, centers, starts, classes, noise.concentration)
        bad = check_row_sums(rows)
        ends = list(itertools.accumulate(map(len, paths)))
        if bad is not None:
            j = bisect_right(ends, bad)
            first_row = ends[j] - len(paths[j])
            raise _row_sum_error(f"utterance utt{ids[j]:04d} row {bad - first_row}", rows[bad])
        rows = PosteriorMatrix(rows).values
        for i, states, end in zip(ids, paths, ends):
            start = end - len(states)
            uid = f"utt{i:04d}"
            stem = os.path.join(base, uid)
            utt = CorpusUtterance(uid, f"{stem}.post", f"{stem}.ref", path_tokens(states, labels))
            save_posteriors(PosteriorMatrix._unchecked(rows[start:end]), utt.posteriors_path)
            save_transcript(utt.reference, utt.reference_path)
            utts.append(utt)
    # Every file lies beside the manifest, so its name is its path from there.
    entries = [(u.utterance_id, os.path.basename(u.posteriors_path),
                os.path.basename(u.reference_path)) for u in utts]
    write_text(os.path.join(base, MANIFEST_NAME), _manifest_text(asdict(noise), entries))
    return CorpusManifest(tuple(utts), noise)


def _manifest_text(noise: dict, entries) -> str:
    """`json.dumps(doc, indent=2) + "\\n"` for a manifest, from json's C routines.

    doc is ``{"noise": noise, "utterances": [{"id": i, "posteriors": p,
    "reference": r} for i, p, r in entries]}``, with noise and entries not
    empty. An indent sends `json.dumps` to its pure-Python encoder, 5.3 ms
    against 0.5 ms for this on a 2000-utterance manifest. Here each string
    goes through the C `encode_basestring_ascii` and each number through
    `json.dumps` without an indent, so both are written as the encoder
    writes them (inf as Infinity).
    """
    enc = json.encoder.encode_basestring_ascii
    noise_items = ",\n".join(
        f"    {enc(name)}: {json.dumps(value)}" for name, value in noise.items())
    utterances = ",\n".join(
        f'    {{\n      "id": {enc(uid)},\n      "posteriors": {enc(post)},\n'
        f'      "reference": {enc(ref)}\n    }}' for uid, post, ref in entries)
    return f'{{\n  "noise": {{\n{noise_items}\n  }},\n  "utterances": [\n{utterances}\n  ]\n}}\n'
