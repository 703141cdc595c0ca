"""The fused image by a Bezout combination, an oracle for replace2.

presentation.replace2 gives the generator fusing g and h, where
a*phi(g) + b*phi(h) = 0 with gcd(a, b) = 1, the image phi(g) / b.  This
copy computes it the long way: extended Euclid gives a*c + b*d = 1, and
the image is d*phi(g) - c*phi(h).
"""


def xgcd(a, b):
    """(g, x, y) with a*x + b*y = g = +-gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def bezout_image(vg, vh, a, b):
    """d*vg - c*vh for a*c + b*d = 1, with gcd(a, b) = 1."""
    divisor, c, d = xgcd(a, b)
    c, d = c * divisor, d * divisor  # divisor is +-1; now a*c + b*d = 1
    assert a * c + b * d == 1
    return tuple(d * x - c * y for x, y in zip(vg, vh))
