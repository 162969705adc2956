"""Separating degrees, measured two ways.

The separating degree of a point records the bidegrees where a form can
vanish on everything else yet survive at the point.  Counting points on its
row and column predicts it; deleting the point's coordinate from every
value space measures it.  The two always agree: the set of degrees where
the Hilbert function drops is exactly the up-set of the predicted degree,
for interior and boundary points alike.
"""

from biproj import classify_points, drop_sets, hilbert_oracle, staircase

g = staircase((4, 2))
print(__doc__)
wi, wj = hilbert_oracle(g).window
measured = drop_sets(g)

for pc in classify_points(g):
    r, s = pc.separating_degree
    upset = {(i, j) for i in range(r, wi + 1) for j in range(s, wj + 1)}
    cells = measured[pc.position]
    print("P%s %-8s predicted %s, drop set has %2d cells, up-set of the prediction: %s"
          % (pc.position, pc.kind.value, pc.separating_degree, len(cells), cells == upset))
    assert cells == upset, "drop set of P%s is not the up-set of %s" % (pc.position, (r, s))
