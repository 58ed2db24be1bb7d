"""Sum-DoF upper bounds for a fixed antenna split.

Two families of converse bounds, both exact and homogeneous of degree 1 in the
split, so they run on its integer numerators over one denominator d (1 or 3
for an allocated split) and make a `Fraction` only for each reported value:

* cut-set bounds: each cut separating transmitters from receivers caps the
  messages crossing it by min(tx antennas on one side, rx antennas on the
  other);
* genie bounds: giving one node a single extra message lets it decode a third
  message, which tightens the cut-set region to the five-term combined bound
  used by the allocation optimizer.

Reports carry every per-cut term with a stable label so callers (and the CLI)
can see which term binds. `partial_terms` constrain strict message subsets and
are informational; `total_terms` each bound the full weighted sum-DoF, and the
combined value is exactly their minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channel import AntennaSplit
from .errors import InvalidInputError, instance
from .rational import frac, frac_str

__all__ = [
    "BoundTerm",
    "BoundReport",
    "cutset_bound_unicast",
    "genie_bound_unicast",
    "symmetric_bound",
    "cutset_bound_broadcast",
]


@dataclass(frozen=True)
class BoundTerm:
    label: str
    value: Fraction


@dataclass(frozen=True)
class BoundReport:
    """All terms of one bound evaluation plus the combined minimum.

    `family` names the bound family ("cutset" or "genie") that produced the
    report; `binding` lists the labels of the total terms attaining the
    minimum.
    """

    partial_terms: tuple[BoundTerm, ...]
    total_terms: tuple[BoundTerm, ...]
    family: str
    combined: Fraction
    binding: tuple[str, ...]

    def to_json(self) -> dict:
        def terms(ts):
            return [{"label": t.label, "value": frac_str(t.value)} for t in ts]

        return {
            "partial_terms": terms(self.partial_terms),
            "total_terms": terms(self.total_terms),
            "combined_cutset": frac_str(self.combined) if self.family == "cutset" else None,
            "combined_genie": frac_str(self.combined) if self.family == "genie" else None,
            "binding": list(self.binding),
        }


def _split_counts(split: AntennaSplit):
    """d, the lcm of the split's denominators, then tx and rx over d."""
    d = instance(split, AntennaSplit).extension_factor
    return d, *(v.numerator * (d // v.denominator) for v in split.tx + split.rx)


def _report(d: int, partials, totals, family: str) -> BoundReport:
    combined = min(v for _, v in totals)
    return BoundReport(
        partial_terms=tuple(BoundTerm(l, Fraction(v, d)) for l, v in partials),
        total_terms=tuple(BoundTerm(l, Fraction(v, d)) for l, v in totals),
        family=family,
        combined=Fraction(combined, d),
        binding=tuple(label for label, v in totals if v == combined),
    )


def cutset_bound_unicast(split: AntennaSplit) -> BoundReport:
    """Cut-set bounds on the six unicast messages.

    Single-node cuts bound the two messages leaving a node, pair cuts the two
    arriving at a node; summing complementary cuts gives the three-term
    combined bound on the total.
    """
    d, t1, t2, t3, r1, r2, r3 = _split_counts(split)
    partials = [
        # messages leaving node l: min(tx_l, rx elsewhere)
        ("cut{1|23}", min(t1, r2 + r3)),
        ("cut{2|13}", min(t2, r1 + r3)),
        ("cut{3|12}", min(t3, r1 + r2)),
        # messages arriving at node l: min(tx elsewhere, rx_l)
        ("cut{12|3}", min(t1 + t2, r3)),
        ("cut{23|1}", min(t2 + t3, r1)),
        ("cut{13|2}", min(t1 + t3, r2)),
    ]
    totals = [
        ("tx{2}+tx{3}+rx{2}+rx{3}", t2 + t3 + r2 + r3),
        ("sum_tx", t1 + t2 + t3),
        ("sum_rx", r1 + r2 + r3),
    ]
    return _report(d, partials, totals, "cutset")


# The three genie totals, (label, (a, b), (c, d)) for max(rx_a, tx_b) +
# max(rx_c, tx_d); swapping every node's tx and rx maps each pair onto the other.
GENIE_TERMS: tuple[tuple[str, tuple[int, int], tuple[int, int]], ...] = (
    ("genie{2,3}", (2, 3), (3, 2)),
    ("genie{1,2}", (2, 1), (1, 2)),
    ("genie{1,3}", (3, 1), (1, 3)),
)


def genie_totals(tx, rx, maximum=max) -> list[tuple[str, object]]:
    """The five (label, value) totals of the genie bound, whose minimum is the
    combined bound: sum_tx, sum_rx, then GENIE_TERMS. Pass `np.maximum` as
    `maximum` to evaluate over arrays of counts."""
    totals = [("sum_tx", tx[0] + tx[1] + tx[2]), ("sum_rx", rx[0] + rx[1] + rx[2])]
    for label, (a, b), (c, d) in GENIE_TERMS:
        totals.append((label, maximum(rx[a - 1], tx[b - 1]) + maximum(rx[c - 1], tx[d - 1])))
    return totals


def genie_bound_unicast(split: AntennaSplit) -> BoundReport:
    """Genie-aided bounds on the six unicast messages.

    Handing node j one of the two messages it overhears lets it also decode
    the message exchanged between the other two nodes, bounding a triple of
    messages by min(max(rx_j, tx_k), tx of the other two). Combining the six
    triples with the transmit/receive totals yields the five-term bound; it
    is never looser than the cut-set combined bound.
    """
    d, t1, t2, t3, r1, r2, r3 = _split_counts(split)
    partials = [
        ("genie@1|w23", min(max(r1, t3), t2 + t3)),
        ("genie@1|w32", min(max(r1, t2), t2 + t3)),
        ("genie@2|w13", min(max(r2, t3), t1 + t3)),
        ("genie@2|w31", min(max(r2, t1), t1 + t3)),
        ("genie@3|w12", min(max(r3, t2), t1 + t2)),
        ("genie@3|w21", min(max(r3, t1), t1 + t2)),
    ]
    return _report(d, partials, genie_totals((t1, t2, t3), (r1, r2, r3)), "genie")


def symmetric_bound(mt, mr) -> Fraction:
    """Combined genie bound when all three nodes share the same (mt, mr):
    min(3 * min(mt, mr), 2 * max(mt, mr))."""
    mt, mr = frac(mt), frac(mr)
    if mt < 0 or mr < 0:
        raise InvalidInputError(f"antenna counts must be >= 0, got mt={mt}, mr={mr}")
    return min(3 * min(mt, mr), 2 * max(mt, mr))


def cutset_bound_broadcast(split: AntennaSplit) -> BoundReport:
    """Cut-set bounds when node 3 additionally broadcasts to nodes 1 and 2.

    The broadcast message counts twice in the weighted total (once per
    receiver), which is why the combined minimum carries the doubled
    transmit-sum term.
    """
    d, t1, t2, t3, r1, r2, r3 = _split_counts(split)
    partials = [
        # receiving-node cuts; broadcast streams ride along on both cuts
        ("cut{12|3}", min(t1 + t2, r3)),
        ("cut{23|1}", min(t2 + t3, r1)),
        ("cut{13|2}", min(t1 + t3, r2)),
    ]
    totals = [
        ("sum_rx", r1 + r2 + r3),
        ("tx{2}+tx{3}+rx{2}+rx{3}", t2 + t3 + r2 + r3),
        ("rx{3}+tx{1}+tx{2}+2tx{3}", r3 + t1 + t2 + 2 * t3),
        ("2sum_tx", 2 * (t1 + t2 + t3)),
    ]
    return _report(d, partials, totals, "cutset")
