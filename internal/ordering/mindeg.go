// Package ordering provides fill-reducing orderings for symmetric sparse
// patterns: approximate minimum degree on a quotient graph (the role played
// by Matlab's amd in the paper's setup), reverse Cuthill–McKee, and nested
// dissection via level-set bisection (the role played by MeTiS). All
// functions return a new-to-old permutation: perm[k] is the original index
// eliminated at step k. Feeding sparse.Matrix.Permute with it yields the
// reordered pattern.
package ordering

import "repro/internal/sparse"

// MinimumDegree computes a fill-reducing minimum-degree ordering with the
// AMD algorithm (approximate external degrees of Amestoy, Davis and Duff,
// with supervariable compression and aggressive element absorption). The
// matrix must be symmetric; the diagonal is ignored. See AMD for the
// algorithm.
func MinimumDegree(m *sparse.Matrix) ([]int, error) {
	return AMD(m)
}
