"""The conjugacy normal form by the rewrite rules alone, an oracle for normalize.

presentation.normalize returns a word that is already a fixpoint as is and
sends only the others through its rules.  This copy applies the rules to
every word: drop zero exponents, merge equal adjacent generators, and merge
equal first and last ones by rotation, until nothing changes.
"""

from zncomplex.errors import TooLongError


def clean_word(syllables):
    """Drop zero exponents and merge equal adjacent generators (not cyclic)."""
    out = []
    for g, e in syllables:
        if not e:
            continue
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([g, e])
    return tuple((g, e) for g, e in out)


def normal_form(syllables):
    """The rule-by-rule fixpoint; TooLongError if it keeps over three syllables."""
    syl = clean_word(syllables)
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        syl = clean_word(((syl[0][0], syl[0][1] + syl[-1][1]),) + syl[1:-1])
    if len(syl) > 3:
        raise TooLongError(syl)
    return syl
