"""The coefficient-sequence transforms of the relation lemmas, which the
acceptance and axial tests apply to the relations that the engine finds.

    from relation_lemmas import relation_transform
"""

from axialcheck.errors import DimensionMismatch

# Each two-sided mode reads the input a_0..a_k extended by a_-1 = sign *
# a_source (lemma 2.3: -a_0; lemma 2.4: a_1, zero if absent): its output is
# zero below index first, then sum(w * a_(i+o)) over the stencil {o: w} for
# i = first .. k + last, then a_k.
_STENCILS = {
    "lemma_2_3_part1": (-1, 0, 1, {1: 1, 0: 2, -1: 2, -2: 1}, 1),
    "lemma_2_3_part2": (-1, 0, 0, {0: 1, -1: 1}, 0),
    "lemma_2_4_part1": (1, 1, 1, {-2: 1, -1: 1, 1: -1, 2: -1}, 1),
    "lemma_2_4_part2": (1, 1, 1, {-1: 1, 1: -1}, 0),
}


def relation_transform(coeffs, mode):
    """Coefficient-sequence transforms derived from the relation lemmas.

    Input/output conventions:

    * lemma_2_3_*: input (a_0..a_k) multiplies (a_{i+1} - a_{-i}); output is
      0-indexed over (a_i - a_{-i}) (index-0 slot is always zero).
    * lemma_2_4_part1/2: input (a_0..a_k) multiplies a_0 and (a_i + a_{-i});
      output as above.
    * lemma_2_4_part3: input (a_1..a_k); output is 1-indexed over
      (a_{i+1} - a_{-i}): the forward differences, then a_k.
    """
    coeffs = tuple(coeffs)
    if not coeffs:
        raise DimensionMismatch("coefficient sequence must be nonempty")
    if mode == "lemma_2_4_part3":
        return tuple(a - b for a, b in zip(coeffs, coeffs[1:])) + coeffs[-1:]
    if mode not in _STENCILS:
        raise DimensionMismatch(f"unknown transform mode {mode!r}")
    sign, source, first, stencil, last = _STENCILS[mode]
    zero = coeffs[0].field.zero()
    k = len(coeffs) - 1
    seq = dict(enumerate(coeffs))
    seq[-1] = sign * seq.get(source, zero)
    out = [zero] * first + [
        sum((w * seq.get(i + o, zero) for o, w in stencil.items()), zero)
        for i in range(first, k + last + 1)
    ]
    return (*out, coeffs[k])
