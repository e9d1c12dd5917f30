"""Discrete value sequences (label sequences).

The phase level delivers "either time series data or discrete value
sequences during the corresponding phase"; "discrete sequences are made of
labels" (Section 2 of the paper).  :class:`DiscreteSequence` is that second
data shape: an ordered sequence of hashable symbols with an optional
alphabet, plus the n-gram utilities the sequence detectors (FSA, HMM, NPD,
NMD, LCS, match-count) are built on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterator, Tuple

__all__ = ["DiscreteSequence"]

Symbol = Hashable


@dataclass(frozen=True)
class DiscreteSequence:
    """An ordered sequence of labels drawn from a finite alphabet.

    Parameters
    ----------
    symbols:
        The labels, in temporal order.  Any hashable values are accepted.
    alphabet:
        Optional explicit alphabet.  When omitted it is inferred from the
        observed symbols; when given, every symbol must belong to it.
    name:
        Optional identifier.
    """

    symbols: Tuple[Symbol, ...]
    alphabet: Tuple[Symbol, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if self.alphabet:
            object.__setattr__(self, "alphabet", tuple(dict.fromkeys(self.alphabet)))
            allowed = set(self.alphabet)
            bad = [s for s in self.symbols if s not in allowed]
            if bad:
                raise ValueError(
                    f"symbols {sorted(map(repr, set(bad)))} not in declared alphabet"
                )
        else:
            object.__setattr__(
                self, "alphabet", tuple(dict.fromkeys(self.symbols))
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DiscreteSequence(self.symbols[index], alphabet=self.alphabet)
        return self.symbols[index]

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self.symbols

    # ------------------------------------------------------------------
    def counts(self) -> Counter:
        """Multiplicity of each observed symbol."""
        return Counter(self.symbols)

    def ngrams(self, n: int) -> Iterator[Tuple[Symbol, ...]]:
        """All contiguous length-``n`` windows, in order."""
        if n < 1:
            raise ValueError("n must be >= 1")
        for i in range(len(self.symbols) - n + 1):
            yield self.symbols[i : i + n]

    def windows(self, width: int, stride: int = 1) -> Iterator["DiscreteSequence"]:
        """Sliding sub-sequences of the given width."""
        if width < 1 or stride < 1:
            raise ValueError("width and stride must be >= 1")
        for i in range(0, len(self.symbols) - width + 1, stride):
            yield DiscreteSequence(
                self.symbols[i : i + width], alphabet=self.alphabet
            )

    def index_encode(self) -> Tuple[int, ...]:
        """Map symbols to their alphabet indices (stable, 0-based)."""
        lookup = {s: i for i, s in enumerate(self.alphabet)}
        return tuple(lookup[s] for s in self.symbols)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = ", ".join(map(repr, self.symbols[:6]))
        ellipsis = ", …" if len(self.symbols) > 6 else ""
        return f"DiscreteSequence([{head}{ellipsis}], n={len(self)})"
