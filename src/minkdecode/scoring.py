"""Word-error-rate scoring by Levenshtein alignment.

WER = (substitutions + deletions + insertions) / reference length, with the
counts decomposed from one minimum-edit-distance alignment. Corpus WER
pools the counts over utterance pairs (it is not the mean of per-utterance
rates).

The distances come from Myers' bit-vector edit distance (Myers, JACM 1999)
in Hyyrö's global form: each column of the (R+1) x (H+1) distance matrix is
kept as two R-bit integers holding its +1 and -1 vertical steps, so a
hypothesis token costs a few big-integer operations instead of R cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ValidationError

__all__ = ["WerReport", "align_and_score", "corpus_wer"]


@dataclass(frozen=True)
class WerReport:
    substitutions: int
    deletions: int
    insertions: int
    ref_length: int

    def __post_init__(self):
        if self.ref_length < 1:
            raise ValidationError("reference length must be >= 1")
        if min(self.substitutions, self.deletions, self.insertions) < 0:
            raise ValidationError("error counts must be nonnegative")
        if self.substitutions + self.deletions > self.ref_length:
            raise ValidationError("S + D cannot exceed the reference length")

    @property
    def num_errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        return self.num_errors / self.ref_length


def align_and_score(reference: Sequence[str], hypothesis: Sequence[str]) -> WerReport:
    """Align hypothesis to reference with unit costs and count S/D/I.

    For reference length R and hypothesis length H, the forward pass costs
    O(H * ceil(R / 30)) integer digit operations and keeps 2 (H + 1) R-bit
    integers. Column j stores `vp[j]` and `vn[j]`, whose bit i - 1 is set
    where D(i, j) - D(i - 1, j) is +1 or -1, so D(i, j) is j plus the +1
    steps minus the -1 steps among the lowest i bits. The backtrace reads
    O(R + H) cells that way.

    When several moves cost the same, the backtrace prefers substitution
    over insertion over deletion, fixing one reproducible decomposition.
    A hypothesis equal to the reference scores 0 errors without aligning.
    """
    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        raise ValidationError("reference must be non-empty")
    R, H = len(ref), len(hyp)
    if ref == hyp:  # the alignment of equal sequences is all matches
        return WerReport(0, 0, 0, R)
    full = (1 << R) - 1
    peq: dict[str, int] = {}
    for i, token in enumerate(ref):
        peq[token] = peq.get(token, 0) | (1 << i)
    # Column 0 is D(i, 0) = i: every vertical step is +1.
    vp, vn = full, 0
    vps, vns = [vp], [vn]
    for token in hyp:
        eq = peq.get(token, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        # Row 0 is D(0, j) = j, so its horizontal step (+1) shifts in as a carry.
        hp = ((hp << 1) | 1) & full
        vp = ((hn << 1) | ~(xv | hp)) & full
        vn = hp & xv
        vps.append(vp)
        vns.append(vn)

    def dist(i: int, j: int) -> int:
        low = (1 << i) - 1
        return j + (vps[j] & low).bit_count() - (vns[j] & low).bit_count()

    subs = dels = ins = 0
    i, j = R, H
    cur = dist(i, j)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            diag = dist(i - 1, j - 1)
            miss = ref[i - 1] != hyp[j - 1]
            if cur == diag + miss:
                subs += miss
                i, j, cur = i - 1, j - 1, diag
                continue
        if j > 0:
            left = dist(i, j - 1)
            if cur == left + 1:
                ins += 1
                j, cur = j - 1, left
                continue
        dels += 1
        i, cur = i - 1, cur - 1
    return WerReport(subs, dels, ins, R)


def corpus_wer(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> WerReport:
    """Pool S/D/I counts over (reference, hypothesis) pairs."""
    subs = dels = ins = ref_len = 0
    count = 0
    for reference, hypothesis in pairs:
        rep = align_and_score(reference, hypothesis)
        subs += rep.substitutions
        dels += rep.deletions
        ins += rep.insertions
        ref_len += rep.ref_length
        count += 1
    if count == 0:
        raise ValidationError("corpus must contain at least one pair")
    return WerReport(subs, dels, ins, ref_len)
