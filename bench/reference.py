"""High-precision reference for the joint log pmf, independent of mdmix.

Works from the generator's own data (count rows, named frequencies as
written to the CSV, theta) in mpmath at 50 significant digits.  The rest
class, when present, is 1 minus the named frequencies, as the frequency
file implies.
"""

from __future__ import annotations

import mpmath

DIGITS = 50


def log_pmf(rows, named_freqs, has_rest: bool, theta: float) -> float:
    with mpmath.workdps(DIGITS):
        q = [mpmath.mpf(f) for f in named_freqs]
        if has_rest:
            q.append(1 - mpmath.fsum(q))
        lg = mpmath.loggamma
        terms = []
        for row in rows:
            terms.append(lg(sum(row) + 1))
            terms.extend(-lg(x + 1) for x in row)
        cols = [sum(row[a] for row in rows) for a in range(len(q))]
        theta = mpmath.mpf(theta)
        if theta == 0:
            terms.extend(c * mpmath.log(q_a) for c, q_a in zip(cols, q) if c)
        else:
            alpha = [q_a * (1 - theta) / theta for q_a in q]
            a_total = mpmath.fsum(alpha)
            terms.append(lg(a_total) - lg(sum(cols) + a_total))
            terms.extend(lg(c + a) - lg(a) for c, a in zip(cols, alpha))
        return float(mpmath.fsum(terms))
