"""File formats and the seeded synthetic-corpus generator.

Formats (all UTF-8 text, floats written with 17 significant digits so that
save -> load round-trips are exact):

* posterior matrix: first line ``frames classes``, at least 1 frame and 2
  classes, then one line per frame with space-separated probabilities;
  rows must sum to 1 within 1e-6.
* HMM: JSON with fields num_states, initial, transitions, labels,
  state_to_class; probabilities are stored linearly and converted to logs
  on load. Labels must be strings. Unknown fields are rejected.
  `load_hmm` checks the JSON types and `num_states`; `HmmModel` the rest.
* transcript: one token per line.
* corpus manifest: JSON listing utterance ids and their posterior and
  reference files (all non-empty strings), plus the generator seed and
  noise parameters. Unknown keys are rejected.

`write_text` is the one writer for every file the program writes. A
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
64-bit generator with defined behavior, so corpora are byte-reproducible
across platforms (and reimplementable in any language).

SplitMix64 is counter-based: draw k of the stream seeded with s is a fixed
mix of s + k*gamma. `splitmix64_doubles` therefore computes many draws of
many streams at once in wrapping uint64 arithmetic, and `generate_corpus`
takes every utterance's draws from it in blocks, giving the same draws in
the same places as the scalar SplitMix64 reference in the test suite
(`tests/oracles.py`). The arithmetic on the draws is kept as that scalar
generator does it, so corpora stay byte for byte the same: exponentials
use `math.log1p` (numpy's `log1p` differs from it in the last bit on some
inputs), cumulative probabilities add in row order, and row totals use
numpy's `sum`.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import numbers
import os
import stat
from dataclasses import asdict, dataclass, fields
from pathlib import Path, PurePath
from typing import NoReturn

import numpy as np

from .decoder import HmmModel, collapse_tokens
from .errors import DataFormatError, ValidationError
from .posteriors import ROW_SUM_TOLERANCE, PosteriorMatrix, check_row_sums

__all__ = [
    "NoiseSpec",
    "CorpusUtterance",
    "CorpusManifest",
    "splitmix64_doubles",
    "format_float",
    "write_text",
    "json_field",
    "json_object",
    "load_json",
    "load_posteriors",
    "save_posteriors",
    "load_hmm",
    "save_hmm",
    "load_transcript",
    "save_transcript",
    "load_priors",
    "load_manifest",
    "save_manifest",
    "check_corpus_size",
    "generate_corpus",
]

MANIFEST_NAME = "manifest.json"


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8, unless path is a regular file holding those bytes.

    Newlines are written as given. Truncating and rewriting an existing file
    costs far more than reading it back, so a regular file of the same size
    is compared first and left alone when its bytes are equal.
    """
    data = text.encode("utf-8")
    try:
        st = os.stat(path)
        if stat.S_ISREG(st.st_mode) and st.st_size == len(data):
            with open(path, "rb") as f:
                if f.read() == data:
                    return
    except OSError:
        pass  # missing or unreadable: the write below succeeds or says why
    with open(path, "wb") as f:
        f.write(data)


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
    one bulk call and checked as one array: its shape, the row sums by
    `check_row_sums` and the entries by `PosteriorMatrix`. If any of that
    fails, `_raise_first_bad_line` walks the file to name the bad line.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DataFormatError(path, 1, "empty file; expected a 'frames classes' header")
    header = lines[0].split()
    if len(header) != 2:
        raise DataFormatError(
            path, 1, f"malformed header {lines[0]!r}; expected 'frames classes'"
        )
    try:
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
        if values.shape == (frames, classes) and check_row_sums(values) is None:
            return PosteriorMatrix(values)
    except ValueError:  # ragged rows, a token float() rejects, or an entry outside [0, 1]
        pass
    _raise_first_bad_line(path, lines, classes)


def _raise_first_bad_line(path: Path, lines: list[str], classes: int) -> NoReturn:
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
        try:
            row = np.array([float(tok) for tok in tokens])
        except ValueError:
            bad = next(tok for tok in tokens if not _is_float(tok))
            raise DataFormatError(path, lineno, f"non-numeric token {bad!r}") from None
        if not ((row >= 0) & (row <= 1)).all():
            raise DataFormatError(path, lineno, "probabilities must be in [0, 1]")
        if check_row_sums(row[None, :]) is not None:
            raise DataFormatError(
                path, lineno,
                f"row sums to {float(row.sum())!r}, expected 1 within {ROW_SUM_TOLERANCE}",
            )
    raise DataFormatError(path, None, "rows fail the bulk checks, but no single line does")


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def save_posteriors(matrix: PosteriorMatrix, path) -> None:
    """Write the matrix in the posterior format, all values in one format call.

    A row whose sum `load_posteriors` would refuse is refused here, before
    anything is written.
    """
    bad = check_row_sums(matrix.values)
    if bad is not None:
        raise ValidationError(
            f"row {bad} sums to {float(matrix.values[bad].sum())!r}, "
            f"expected 1 within {ROW_SUM_TOLERANCE}"
        )
    row = " ".join([_FLOAT_FORMAT] * matrix.classes)
    template = "\n".join([f"{matrix.frames} {matrix.classes}"] + [row] * matrix.frames)
    text = template % tuple(matrix.values.ravel().tolist())
    write_text(path, text + "\n")


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def load_json(path: Path):
    """The JSON document in the file at path; a syntax error names its line."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None


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
        init = _numbers(doc, "initial")
        trans = _numbers(doc, "transitions")
        if init.shape != (n,):
            raise ValidationError(f"initial must have {n} entries, got shape {init.shape}")
        labels = doc["labels"]
        s2c = doc["state_to_class"]
        if not isinstance(labels, list):
            raise ValidationError(f"labels must be a list of strings, got {labels!r}")
        if not isinstance(s2c, list):
            raise ValidationError(f"state_to_class must be a list, got {s2c!r}")
        return HmmModel.from_probs(init, trans, labels, s2c)
    except ValidationError as exc:
        raise DataFormatError(path, None, str(exc)) from None


def _numbers(doc: dict, name: str) -> np.ndarray:
    """The HMM field `name` as a float64 array; strings and ragged nesting are refused."""
    try:
        arr = np.asarray(doc[name])
    except ValueError:  # ragged nested lists
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must hold only numbers, got {doc[name]!r}")
    return arr.astype(np.float64, copy=False)


def save_hmm(hmm: HmmModel, path) -> None:
    doc = {
        "num_states": hmm.num_states,
        "initial": [float(p) for p in np.exp(hmm.log_initial)],
        "transitions": [[float(p) for p in row] for row in np.exp(hmm.log_transitions)],
        "labels": list(hmm.state_labels),
        "state_to_class": [int(c) for c in hmm.state_to_class],
    }
    write_text(path, json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# transcripts and priors
# ---------------------------------------------------------------------------

def load_transcript(path) -> tuple[str, ...]:
    path = Path(path)
    tokens = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
    return tuple(tok for tok in tokens if tok)


def save_transcript(tokens, path) -> None:
    write_text(path, "".join(f"{tok}\n" for tok in tokens))


def load_priors(path) -> np.ndarray:
    path = Path(path)
    tokens = path.read_text(encoding="utf-8").split()
    if not tokens:
        raise DataFormatError(path, 1, "empty priors file")
    try:
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

@dataclass(frozen=True)
class NoiseSpec:
    """Synthetic acoustic-noise knobs.

    concentration scales how much posterior mass lands on the true class
    (math.inf gives exact one-hot rows); confusion_rate is the probability
    that a frame's mass is re-centered on a uniformly chosen wrong class.
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
    utterance_id: str
    posteriors_path: Path
    reference_path: Path


@dataclass(frozen=True)
class CorpusManifest:
    utterances: tuple[CorpusUtterance, ...]
    noise: NoiseSpec | None = None

    def __post_init__(self):
        ids = [u.utterance_id for u in self.utterances]
        if len(set(ids)) != len(ids):
            raise ValidationError("utterance ids must be unique")


def save_manifest(manifest: CorpusManifest, path) -> None:
    path = Path(path)
    base = path.parent
    doc: dict = {}
    if manifest.noise is not None:
        doc["noise"] = asdict(manifest.noise)
    doc["utterances"] = [
        {
            "id": u.utterance_id,
            "posteriors": _relative_to(u.posteriors_path, base),
            "reference": _relative_to(u.reference_path, base),
        }
        for u in manifest.utterances
    ]
    write_text(path, json.dumps(doc, indent=2) + "\n")


def _relative_to(p, base: Path) -> str:
    """p relative to base in POSIX form, or all of p when it lies outside base.

    A file directly under base, as `generate_corpus` writes them, is its own
    name; comparing parents parses no path text and caches none on p.
    """
    if isinstance(p, PurePath) and p.name and p.parent == base:
        return p.name
    try:
        return Path(p).relative_to(base).as_posix()
    except ValueError:
        return Path(p).as_posix()


def load_manifest(path) -> CorpusManifest:
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
            utt = CorpusUtterance(uid, base / post, base / ref)
            for p in (utt.posteriors_path, utt.reference_path):
                if not p.exists():
                    raise ValidationError(f"referenced file {p} does not exist")
            utts.append(utt)
        return CorpusManifest(tuple(utts), noise)
    except ValidationError as exc:
        raise DataFormatError(path, None, str(exc)) from None


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

# Draws `generate_corpus` holds at once. Utterances are generated in blocks of
# at most this many draws (one that needs more gets a block of its own), so
# its memory does not grow with the corpus.
_BLOCK_DRAWS = 1 << 14

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


def _pick(cumulative: list[float], u: float) -> int:
    """The scalar generator's `categorical` given its draw u and its probabilities' running sums."""
    return min(bisect.bisect_right(cumulative, u), len(cumulative) - 1)


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
    """frames as (lo, hi) if utterances is an int >= 1 and frames two ints with 1 <= lo <= hi.

    Nothing is converted. A range out of order is called frames_name.
    """
    if json_field(utterances, int, "utterances") < 1:
        raise ValidationError(f"field 'utterances' must be >= 1, got {utterances!r}")
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
    """Write a synthetic corpus under out_dir and return its manifest.

    Each utterance samples a state path from the HMM, takes the collapsed
    labels as the reference transcript, and emits per-frame posterior rows
    centered (modulo confusion events) on the true class. Utterance i draws
    from SplitMix64(seed + i), with seed + i taken mod 2**64, so generation
    is reproducible and utterances are independent of corpus size or
    processing order.

    An utterance's draws are, in order: its frame count; one per frame for
    its state path; then for each frame a confusion draw, one more naming
    the wrong class if the frame is confused, and one exponential per class
    (none when the concentration is inf). The sizes must pass
    `check_corpus_size`, which names them 'utterances' and 'frames'.
    """
    lo, hi = check_corpus_size(num_utterances, frames_range)
    classes = int(hmm.state_to_class.max()) + 1
    if classes < 2:
        raise ValidationError("corpus generation needs at least 2 classes")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    init_cum = list(itertools.accumulate(np.exp(hmm.log_initial).tolist()))
    trans_cum = [list(itertools.accumulate(row)) for row in np.exp(hmm.log_transitions).tolist()]
    state_class = hmm.state_to_class.tolist()
    rate = noise.confusion_rate
    row_draws = 0 if math.isinf(noise.concentration) else classes
    utt_draws = 1 + hi + hi * (2 + row_draws)  # with every frame confused
    block = max(1, _BLOCK_DRAWS // utt_draws)
    utts = []
    for first in range(0, num_utterances, block):
        ids = range(first, min(first + block, num_utterances))
        draws = splitmix64_doubles([(noise.seed + i) & _U64_MASK for i in ids], utt_draws)
        paths, centers, starts = [], [], []
        for offset, u in zip(range(0, draws.size, utt_draws), draws.tolist()):
            num_frames = lo + _below(u[0], hi - lo + 1)
            states = [_pick(init_cum, u[1])]
            for k in range(2, num_frames + 1):
                states.append(_pick(trans_cum[states[-1]], u[k]))
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
        rows = _posterior_rows(draws, centers, starts, classes, noise.concentration)
        end = 0
        for i, states in zip(ids, paths):
            start, end = end, end + len(states)
            reference = collapse_tokens([hmm.state_labels[s] for s in states])
            uid = f"utt{i:04d}"
            post_path = out_dir / f"{uid}.post"
            ref_path = out_dir / f"{uid}.ref"
            save_posteriors(PosteriorMatrix(rows[start:end]), post_path)
            save_transcript(reference, ref_path)
            utts.append(CorpusUtterance(uid, post_path, ref_path))
    manifest = CorpusManifest(tuple(utts), noise)
    save_manifest(manifest, out_dir / MANIFEST_NAME)
    return manifest
